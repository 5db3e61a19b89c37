// Package wire implements the length-prefixed, multiplexed binary
// framing of the remote (content-based access) and remotefs
// (file-system export) protocols — the one request framing those
// services speak, and the serving substrate that turns hacvold from a
// demo daemon into a multi-tenant server (DESIGN.md §12).
//
// A connection opens with a 5-byte hello in each direction:
//
//	"HACX" version(1)
//
// A server closes any connection whose first bytes are not the hello.
//
// After the hello, both directions carry frames:
//
//	length  uint32, big-endian — byte count of everything after itself
//	type    uint8              — protocol-specific frame type
//	flags   uint8              — FlagFinal ends a response stream,
//	                             FlagTrace precedes the payload with a
//	                             trace header
//	id      uint64, big-endian — request ID, chosen by the client
//	trace   24 bytes, only when FlagTrace is set — 128-bit trace ID
//	        followed by the sender's span ID (uint64, big-endian), the
//	        cross-process trace context of DESIGN.md §13
//	payload remaining bytes    — protocol-specific body
//
// Many requests may be in flight on one connection; responses carry
// the ID of the request they answer and may span several frames, the
// last one marked FlagFinal (streamed search result pages). Decoding
// is bounded: a frame whose declared length is shorter than the fixed
// header or longer than the caller's payload budget is rejected before
// any allocation, so a hostile length can never over-allocate.
//
// The trace header is the only way a trace context crosses the wire.
// It is optional within version 1: flags are a bitfield, and an
// untraced frame is byte-identical to one from a peer that never
// traces.
//
// Server side, ConnServer is the accept loop the protocol servers
// share and ServeConn runs one framed connection; client side, Mux
// multiplexes calls over one connection. Both write through
// FrameWriter, which batches the frames of concurrent senders.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"hacfs/internal/obs"
)

// Magic opens every binary connection, followed by a version byte.
const Magic = "HACX"

// Version is the framing version this package speaks.
const Version = 1

// helloLen is the size of the connection preamble.
const helloLen = len(Magic) + 1

// headerLen is the fixed frame header after the length word:
// type(1) + flags(1) + id(8).
const headerLen = 10

// FlagFinal marks the last frame of a response stream.
const FlagFinal = 0x01

// FlagTrace marks a frame whose header is followed by a trace header:
// 16-byte trace ID + 8-byte sender span ID. WriteFrame sets it
// automatically when the frame carries a trace.
const FlagTrace = 0x02

// traceHeaderLen is the size of the optional trace header.
const traceHeaderLen = 16 + 8

// ErrNotBinary reports a connection preamble that is not the hello.
var ErrNotBinary = errors.New("wire: not a binary-protocol connection")

// ErrVersion reports a binary peer speaking an unsupported framing
// version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// Frame is one decoded protocol frame. Trace and Span, when non-zero,
// are the propagated trace context (sent as the optional FlagTrace
// header): the trace the request belongs to and the sender's span, the
// parent of whatever span the receiver starts.
type Frame struct {
	Type    uint8
	Flags   uint8
	ID      uint64
	Trace   obs.TraceID
	Span    obs.SpanID
	Payload []byte
}

// Final reports whether the frame ends its response stream.
func (f *Frame) Final() bool { return f.Flags&FlagFinal != 0 }

// WriteHello sends the connection preamble.
func WriteHello(w io.Writer, version uint8) error {
	var b [helloLen]byte
	copy(b[:], Magic)
	b[len(Magic)] = version
	_, err := w.Write(b[:])
	return err
}

// ReadHello consumes and validates the preamble, returning the peer's
// version. A non-magic preamble returns ErrNotBinary.
func ReadHello(r io.Reader) (uint8, error) {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, ErrNotBinary
	}
	return b[len(Magic)], nil
}

// WriteFrame encodes one frame, emitting the trace header (and setting
// FlagTrace) when the frame carries a trace. The caller serializes
// concurrent writers (frames must not interleave mid-frame).
func WriteFrame(w io.Writer, f Frame) error {
	var hdr [4 + headerLen + traceHeaderLen]byte
	n := 4 + headerLen
	if !f.Trace.IsZero() {
		f.Flags |= FlagTrace
		copy(hdr[n:], f.Trace[:])
		binary.BigEndian.PutUint64(hdr[n+16:], uint64(f.Span))
		n += traceHeaderLen
	} else {
		f.Flags &^= FlagTrace
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n-4+len(f.Payload)))
	hdr[4] = f.Type
	hdr[5] = f.Flags
	binary.BigEndian.PutUint64(hdr[6:14], f.ID)
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame decodes one frame, rejecting any declared length below the
// fixed header (plus trace header when FlagTrace is set) or above
// maxPayload before allocating anything.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < headerLen {
		return Frame{}, fmt.Errorf("wire: frame length %d below %d-byte header", n, headerLen)
	}
	if uint64(n-headerLen) > uint64(maxPayload)+traceHeaderLen {
		// Early reject of lengths too large under either header shape;
		// the exact payload bound is re-checked below once the flags say
		// whether a trace header is present. Nothing is allocated from
		// the declared length at this point.
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", n-headerLen, maxPayload)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f := Frame{Type: hdr[0], Flags: hdr[1], ID: binary.BigEndian.Uint64(hdr[2:10])}
	fixed := uint32(headerLen)
	if f.Flags&FlagTrace != 0 {
		fixed += traceHeaderLen
		if n < fixed {
			return Frame{}, fmt.Errorf("wire: frame length %d below %d-byte traced header", n, fixed)
		}
		var th [traceHeaderLen]byte
		if _, err := io.ReadFull(r, th[:]); err != nil {
			return Frame{}, err
		}
		copy(f.Trace[:], th[:16])
		f.Span = obs.SpanID(binary.BigEndian.Uint64(th[16:]))
	}
	if n-fixed > maxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", n-fixed, maxPayload)
	}
	if pl := n - fixed; pl > 0 {
		f.Payload = make([]byte, pl)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Payload building and bounded decoding
// ---------------------------------------------------------------------

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBytes appends p length-prefixed.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Dec is a bounded payload decoder. Every accessor is a no-op once an
// error is recorded, so codecs can decode a whole struct and check
// Err() once. Length-prefixed fields are validated against the bytes
// actually remaining before any slice is taken, so a corrupt length
// cannot over-allocate.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of undecoded bytes remaining.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Close errors if undecoded bytes remain, then returns Err.
func (d *Dec) Close() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing payload bytes", len(d.b))
	}
	return d.err
}

// Uvarint decodes one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes one zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int decodes a varint that must fit an int.
func (d *Dec) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Byte decodes one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool decodes one byte as a boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Bytes decodes a length-prefixed byte field of at most max bytes. The
// returned slice aliases the payload; callers that retain it past the
// payload's life must copy.
func (d *Dec) Bytes(max int) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(max) {
		d.fail("field of %d bytes exceeds limit %d", n, max)
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("field of %d bytes but only %d remain", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// String decodes a length-prefixed string of at most max bytes.
func (d *Dec) String(max int) string { return string(d.Bytes(max)) }

// Strings decodes a count-prefixed list of strings, bounding both the
// element size and the total element count.
func (d *Dec) Strings(maxEach, maxCount int) []string {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(maxCount) {
		d.fail("list of %d entries exceeds limit %d", n, maxCount)
		return nil
	}
	// Each entry costs at least its one-byte length prefix, so the
	// remaining payload bounds the count; pre-allocate no more.
	if n > uint64(len(d.b)) {
		d.fail("list of %d entries but only %d payload bytes remain", n, len(d.b))
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.String(maxEach))
		if d.err != nil {
			return nil
		}
	}
	return out
}

// AppendStrings appends a count-prefixed string list.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendBool appends a boolean byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---------------------------------------------------------------------
// Client-side multiplexing
// ---------------------------------------------------------------------

// ErrConnLost reports a call whose connection failed under it: the
// request frame could not be written, or the connection closed before
// the response was complete. The request may or may not have run.
var ErrConnLost = errors.New("wire: connection lost")

// errNoResponse is pendingCall.next's report of a wait that outlived
// the mux's per-call timeout; Stream.Next names the server in it.
var errNoResponse = errors.New("no response")

// pendingCall collects the response frames for one request ID without
// ever blocking the connection's reader: frames queue under the call's
// own lock and a 1-slot ready channel wakes the waiter.
type pendingCall struct {
	mu     sync.Mutex
	frames []Frame
	err    error
	ready  chan struct{}
}

func newPendingCall() *pendingCall {
	return &pendingCall{ready: make(chan struct{}, 1)}
}

func (pc *pendingCall) push(f Frame) {
	pc.mu.Lock()
	pc.frames = append(pc.frames, f)
	pc.mu.Unlock()
	pc.wake()
}

func (pc *pendingCall) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	pc.mu.Unlock()
	pc.wake()
}

func (pc *pendingCall) wake() {
	select {
	case pc.ready <- struct{}{}:
	default:
	}
}

// next returns the next queued frame, waiting for the reader, for ctx,
// and — when ctx has no deadline — at most timeout (0 = unbounded),
// which then fails with errNoResponse. After a connection failure it
// returns the recorded error.
func (pc *pendingCall) next(ctx context.Context, timeout time.Duration) (Frame, error) {
	var expired <-chan time.Time
	armed := false
	for {
		pc.mu.Lock()
		if len(pc.frames) > 0 {
			f := pc.frames[0]
			pc.frames = pc.frames[1:]
			pc.mu.Unlock()
			return f, nil
		}
		err := pc.err
		pc.mu.Unlock()
		if err != nil {
			return Frame{}, err
		}
		if !armed {
			// The timer is armed only once the caller has to wait, so a
			// response already queued costs no timer.
			armed = true
			if _, ok := ctx.Deadline(); !ok && timeout > 0 {
				t := time.NewTimer(timeout)
				defer t.Stop()
				expired = t.C
			}
		}
		select {
		case <-pc.ready:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		case <-expired:
			return Frame{}, errNoResponse
		}
	}
}

// Mux is the client side of one multiplexed binary connection: it
// assigns request IDs, writes frames through a FrameWriter, and
// demultiplexes response frames to their callers by ID. It re-dials
// lazily after failures. A call whose connection dies under it fails
// with ErrConnLost, unless the caller marked the request idempotent
// and no response frame had arrived yet: such a call is sent once more
// on a fresh connection, so the first request after a server restart
// or drain does not fail.
type Mux struct {
	addr       string
	timeout    time.Duration
	maxPayload uint32

	mu      sync.Mutex // guards conn lifecycle and pending
	conn    net.Conn
	w       *FrameWriter
	pending map[uint64]*pendingCall
	nextID  uint64
	gen     uint64 // bumped every re-dial, keys reader teardown
}

// NewMux returns a lazy client mux for the server at addr. timeout
// bounds the dial, each frame write, and each wait for a response
// frame when the call's context has no deadline of its own.
// maxPayload bounds one received frame's payload.
func NewMux(addr string, timeout time.Duration, maxPayload uint32) *Mux {
	return &Mux{addr: addr, timeout: timeout, maxPayload: maxPayload}
}

// Addr returns the server address the mux dials.
func (m *Mux) Addr() string { return m.addr }

// SetTimeout changes the per-call timeout (see NewMux).
func (m *Mux) SetTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// Close drops the connection, failing all in-flight calls; later calls
// re-dial.
func (m *Mux) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropLocked(errors.New("wire: connection closed"))
}

func (m *Mux) dropLocked(cause error) error {
	var err error
	if m.conn != nil {
		err = m.conn.Close()
	}
	m.conn, m.w = nil, nil
	for id, pc := range m.pending {
		pc.fail(cause)
		delete(m.pending, id)
	}
	return err
}

// ensureLocked dials and performs the hello exchange if no connection
// is live, then starts the demultiplexing reader.
func (m *Mux) ensureLocked(ctx context.Context) error {
	if m.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: m.timeout}
	conn, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return err
	}
	if m.timeout > 0 {
		conn.SetDeadline(time.Now().Add(m.timeout))
	}
	if err := WriteHello(conn, Version); err != nil {
		conn.Close()
		return err
	}
	ver, err := ReadHello(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if ver != Version {
		conn.Close()
		return fmt.Errorf("%w: server speaks %d, client %d", ErrVersion, ver, Version)
	}
	conn.SetDeadline(time.Time{})
	m.conn = conn
	m.w = NewFrameWriter(conn)
	m.pending = make(map[uint64]*pendingCall)
	m.gen++
	go m.readLoop(conn, m.gen)
	return nil
}

// readLoop demultiplexes response frames until the connection dies.
func (m *Mux) readLoop(conn net.Conn, gen uint64) {
	r := bufio.NewReader(conn)
	var cause error
	for {
		f, err := ReadFrame(r, m.maxPayload)
		if err != nil {
			cause = err
			break
		}
		m.mu.Lock()
		if m.gen != gen {
			m.mu.Unlock()
			return
		}
		pc, ok := m.pending[f.ID]
		if ok && f.Final() {
			delete(m.pending, f.ID)
		}
		m.mu.Unlock()
		if !ok {
			// A frame for a request nobody is waiting on: either a
			// canceled call (harmless, drop it) — unsolicited IDs also
			// land here and are ignored rather than trusted.
			continue
		}
		pc.push(f)
	}
	m.mu.Lock()
	if m.gen == gen {
		m.dropLocked(fmt.Errorf("%w: %s: %w", ErrConnLost, m.addr, cause))
	}
	m.mu.Unlock()
}

// Stream is the response side of one call: a sequence of frames ending
// with FlagFinal.
type Stream struct {
	m       *Mux
	sc      obs.SpanContext
	typ     uint8
	payload []byte
	retry   bool // idempotent and not yet re-sent

	id      uint64
	pc      *pendingCall
	timeout time.Duration
	started bool // a response frame has arrived
	done    bool
}

// send writes the request frame under a fresh ID, dialing first when
// no connection is live. A write failure drops the connection and
// reports ErrConnLost; dial errors are returned as they are.
func (s *Stream) send(ctx context.Context) error {
	m := s.m
	m.mu.Lock()
	if err := m.ensureLocked(ctx); err != nil {
		m.mu.Unlock()
		return err
	}
	m.nextID++
	s.id = m.nextID
	s.pc = newPendingCall()
	m.pending[s.id] = s.pc
	conn, w := m.conn, m.w
	s.timeout = m.timeout
	m.mu.Unlock()

	dl, ok := ctx.Deadline()
	if !ok && s.timeout > 0 {
		dl = time.Now().Add(s.timeout)
	}
	err := w.SendBy(Frame{Type: s.typ, ID: s.id, Flags: FlagFinal, Trace: s.sc.Trace, Span: s.sc.Span, Payload: s.payload}, dl)
	if err != nil {
		err = fmt.Errorf("%w: %s: write: %w", ErrConnLost, m.addr, err)
		m.mu.Lock()
		if m.conn == conn {
			m.dropLocked(err)
		}
		m.mu.Unlock()
	}
	return err
}

// mayRetry reports whether a call that failed with err gets its one
// re-send: it must be idempotent, not yet re-sent, without any response
// frame, its connection lost, and its context still live.
func (s *Stream) mayRetry(ctx context.Context, err error) bool {
	if !s.retry || s.started || ctx.Err() != nil || !errors.Is(err, ErrConnLost) {
		return false
	}
	s.retry = false
	return true
}

// Next returns the next response frame. After the FlagFinal frame has
// been returned it reports io.EOF.
func (s *Stream) Next(ctx context.Context) (Frame, error) {
	if s.done {
		return Frame{}, io.EOF
	}
	f, err := s.pc.next(ctx, s.timeout)
	if err != nil && s.mayRetry(ctx, err) {
		if err = s.send(ctx); err == nil {
			f, err = s.pc.next(ctx, s.timeout)
		}
	}
	if err != nil {
		s.Cancel()
		if err == errNoResponse {
			err = fmt.Errorf("wire: %s: no response within %v: %w", s.m.addr, s.timeout, os.ErrDeadlineExceeded)
		}
		return Frame{}, err
	}
	s.started = true
	if f.Final() {
		s.done = true
	}
	return f, nil
}

// Cancel abandons the call: later frames for its ID are dropped by the
// reader. It is safe to call at any time, including after completion.
func (s *Stream) Cancel() {
	s.m.mu.Lock()
	delete(s.m.pending, s.id)
	s.m.mu.Unlock()
}

// Call sends one request frame (the mux assigns its ID) and returns
// the response stream. A non-zero sc rides the frame as the FlagTrace
// header, so the server joins the caller's trace; callers pass the
// span context they already hold, since re-extracting it from ctx on
// every RPC is measurable on the hot path. idempotent marks a request
// that is safe to run twice (a read, a search, a ping): if its
// connection is lost before any response frame arrives, it is sent
// once more on a fresh connection. Dial errors are returned as they
// are.
func (m *Mux) Call(ctx context.Context, sc obs.SpanContext, typ uint8, payload []byte, idempotent bool) (*Stream, error) {
	s := &Stream{m: m, sc: sc, typ: typ, payload: payload, retry: idempotent}
	err := s.send(ctx)
	if err != nil && s.mayRetry(ctx, err) {
		err = s.send(ctx)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// CallOne performs a single-frame request/response round trip (see
// Call).
func (m *Mux) CallOne(ctx context.Context, sc obs.SpanContext, typ uint8, payload []byte, idempotent bool) (Frame, error) {
	st, err := m.Call(ctx, sc, typ, payload, idempotent)
	if err != nil {
		return Frame{}, err
	}
	defer st.Cancel()
	return st.Next(ctx)
}
