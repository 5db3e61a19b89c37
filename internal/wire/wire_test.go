package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hacfs/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: 1, ID: 1},
		{Type: 7, Flags: FlagFinal, ID: 1<<63 + 9, Payload: []byte("hello")},
		{Type: 255, ID: 0, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestFrameTraceRoundTrip: a frame with a span context grows a trace
// header and reads back identically; a traceless frame keeps the plain
// 10-byte header with the flag clear.
func TestFrameTraceRoundTrip(t *testing.T) {
	trace := obs.NewTraceID()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: 3, ID: 9, Flags: FlagFinal, Trace: trace, Span: 42, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != trace || got.Span != 42 {
		t.Fatalf("trace context = {%s %d}, want {%s 42}", got.Trace, got.Span, trace)
	}
	if got.Flags&FlagTrace == 0 {
		t.Fatal("trace flag not set on a traced frame")
	}
	if got.Flags&FlagFinal == 0 || !bytes.Equal(got.Payload, []byte("q")) {
		t.Fatalf("frame fields damaged: %+v", got)
	}

	// Untraced frame: byte-identical to the pre-trace wire format.
	buf.Reset()
	if err := WriteFrame(&buf, Frame{Type: 3, ID: 9, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n != 4+10+1 {
		t.Fatalf("untraced frame is %d bytes, want %d (no trace header)", n, 4+10+1)
	}
	got, err = ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() || got.Span != 0 || got.Flags&FlagTrace != 0 {
		t.Fatalf("untraced frame read back a trace: %+v", got)
	}

	// FlagTrace set by a corrupt writer without the header bytes: the
	// declared length is too short for the fixed part and must error.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10))
	hdr := make([]byte, 10)
	hdr[1] = FlagTrace
	buf.Write(hdr)
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("traced frame without trace header bytes accepted")
	}
}

func TestReadFrameBounds(t *testing.T) {
	// Declared length below the header.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(3))
	buf.WriteString("abc")
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("undersized length accepted")
	}
	// Declared length above the payload budget: must error before
	// consuming (or allocating) the oversized payload.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10+101))
	if _, err := ReadFrame(&buf, 100); err == nil {
		t.Fatal("oversized length accepted")
	}
	// Truncated payload.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10+5))
	buf.Write(make([]byte, 10+2))
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), Magic) {
		t.Fatal("hello does not carry the magic")
	}
	v, err := ReadHello(&buf)
	if err != nil || v != 3 {
		t.Fatalf("ReadHello = %d, %v", v, err)
	}
	if _, err := ReadHello(strings.NewReader("PING\n")); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("non-hello preamble: err = %v, want ErrNotBinary", err)
	}
	if _, err := ReadHello(strings.NewReader("HA")); err == nil {
		t.Fatal("short preamble accepted")
	}
}

func TestDecBounded(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 42)
	b = AppendVarint(b, -7)
	b = AppendString(b, "path")
	b = AppendStrings(b, []string{"a", "bb"})
	b = AppendBool(b, true)

	d := NewDec(b)
	if v := d.Uvarint(); v != 42 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("varint = %d", v)
	}
	if s := d.String(64); s != "path" {
		t.Fatalf("string = %q", s)
	}
	if ss := d.Strings(64, 16); len(ss) != 2 || ss[1] != "bb" {
		t.Fatalf("strings = %v", ss)
	}
	if !d.Bool() {
		t.Fatal("bool = false")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A huge declared string length must be rejected without
	// allocating.
	d = NewDec(AppendUvarint(nil, 1<<40))
	if d.Bytes(1<<20) != nil || d.Err() == nil {
		t.Fatal("oversized field accepted")
	}
	// A count larger than the remaining payload must be rejected.
	d = NewDec(AppendUvarint(nil, 1<<30))
	if d.Strings(64, 1<<31) != nil || d.Err() == nil {
		t.Fatal("oversized list accepted")
	}
	// Trailing bytes are an error.
	d = NewDec([]byte{0, 1})
	d.Uvarint()
	if err := d.Close(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// echoServer serves the framing through ConnServer and ServeConn,
// echoing every request payload back on its ID, optionally split into
// two frames.
func echoServer(t *testing.T, split bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConnServer(func(conn net.Conn) {
		ServeConn(conn, 0xff, 1<<20, 8, func(w *FrameWriter, f Frame) {
			if split && len(f.Payload) > 1 {
				w.Send(Frame{Type: f.Type, ID: f.ID, Payload: f.Payload[:1]})
				w.Send(Frame{Type: f.Type, ID: f.ID, Flags: FlagFinal, Payload: f.Payload[1:]})
				return
			}
			w.Send(Frame{Type: f.Type, ID: f.ID, Flags: FlagFinal, Payload: f.Payload})
		})
	})
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func TestMuxConcurrentCalls(t *testing.T) {
	addr := echoServer(t, false)
	m := NewMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	ctx := context.Background()
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			payload := []byte{byte(i), byte(i >> 8)}
			f, err := m.CallOne(ctx, obs.SpanContext{}, 9, payload, false)
			if err == nil && !bytes.Equal(f.Payload, payload) {
				err = errors.New("payload mismatch across IDs")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMuxStreamedResponse(t *testing.T) {
	addr := echoServer(t, true)
	m := NewMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	ctx := context.Background()
	st, err := m.Call(ctx, obs.SpanContext{}, 3, []byte("xyz"), false)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		f, err := st.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Payload...)
	}
	if string(got) != "xyz" {
		t.Fatalf("reassembled stream = %q", got)
	}
}

func TestMuxVersionMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadHello(conn)
		WriteHello(conn, 99) // wrong version
		buf := make([]byte, 1)
		conn.Read(buf) // hold until client gives up
	}()
	m := NewMux(l.Addr().String(), 2*time.Second, 1<<20)
	defer m.Close()
	if _, err := m.CallOne(context.Background(), obs.SpanContext{}, 1, nil, false); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestMuxConnectionLossFailsPending(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		ReadHello(conn)
		WriteHello(conn, Version)
		ReadFrame(conn, 1<<20)
		conn.Close() // die without answering
	}()
	m := NewMux(l.Addr().String(), 2*time.Second, 1<<20)
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.CallOne(ctx, obs.SpanContext{}, 1, nil, false); !errors.Is(err, ErrConnLost) {
		t.Fatalf("err = %v, want ErrConnLost", err)
	}
}

// dropFirstServer answers the hello on its first connection, reads one
// request and closes without replying — a server restarting under a
// client. Later connections echo. It returns the address and a count
// of the request frames it has read.
func dropFirstServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var reqs atomic.Int64
	go func() {
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if first {
				ReadHello(conn)
				WriteHello(conn, Version)
				if _, err := ReadFrame(conn, 1<<20); err == nil {
					reqs.Add(1)
				}
				conn.Close()
				continue
			}
			go func() {
				defer conn.Close()
				ServeConn(conn, 0xff, 1<<20, 8, func(w *FrameWriter, f Frame) {
					reqs.Add(1)
					w.Send(Frame{Type: f.Type, ID: f.ID, Flags: FlagFinal, Payload: f.Payload})
				})
			}()
		}
	}()
	return l.Addr().String(), &reqs
}

func TestMuxRetriesIdempotentCallOnLostConnection(t *testing.T) {
	addr, reqs := dropFirstServer(t)
	m := NewMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	f, err := m.CallOne(context.Background(), obs.SpanContext{}, 4, []byte("again"), true)
	if err != nil {
		t.Fatalf("idempotent call after a lost connection: %v", err)
	}
	if string(f.Payload) != "again" {
		t.Fatalf("payload = %q", f.Payload)
	}
	if n := reqs.Load(); n != 2 {
		t.Fatalf("server read %d requests, want 2 (the lost one and its re-send)", n)
	}
}

func TestMuxDoesNotRetryNonIdempotentCall(t *testing.T) {
	addr, reqs := dropFirstServer(t)
	m := NewMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	_, err := m.CallOne(context.Background(), obs.SpanContext{}, 4, []byte("once"), false)
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("err = %v, want ErrConnLost", err)
	}
	if n := reqs.Load(); n != 1 {
		t.Fatalf("server read %d requests, want 1", n)
	}
	// The mux re-dials for the next call.
	if _, err := m.CallOne(context.Background(), obs.SpanContext{}, 4, []byte("next"), false); err != nil {
		t.Fatalf("call after re-dial: %v", err)
	}
}

// TestMuxTimeoutBoundsSilentServer: a server that completes the hello
// and never answers fails a call whose context has no deadline after
// the mux's timeout, with a deadline error.
func TestMuxTimeoutBoundsSilentServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadHello(conn)
		WriteHello(conn, Version)
		io.Copy(io.Discard, conn) // read requests, answer none
	}()
	m := NewMux(l.Addr().String(), 100*time.Millisecond, 1<<20)
	defer m.Close()
	start := time.Now()
	_, err = m.CallOne(context.Background(), obs.SpanContext{}, 1, nil, true)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("call took %v", d)
	}
}
