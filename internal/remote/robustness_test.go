package remote

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// rawConn opens a raw TCP connection to a fresh test server and returns
// it with a working client on the same server, so a test can check
// that whatever it does to its own connection leaves the server up.
func rawConn(t *testing.T) (net.Conn, *BinClient) {
	t.Helper()
	c, _, _ := startServer(t)
	if err := c.Ping(); err != nil { // ensures the server is up
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", c.mux.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, c
}

// helloConn is rawConn past the hello exchange.
func helloConn(t *testing.T) (net.Conn, *BinClient) {
	t.Helper()
	conn, c := rawConn(t)
	if err := wire.WriteHello(conn, wire.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	return conn, c
}

// expectClosed checks that the server closed conn without replying.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read after bad input = %d bytes, %v; want the server to close the connection", n, err)
	}
}

// TestServerSurvivesGarbage: a connection that does not open with the
// hello is closed, and only that one — other clients keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	conn, c := rawConn(t)
	if _, err := conn.Write([]byte("\x00\xff\x13garbage\r\nPING\n")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping from another client after garbage: %v", err)
	}
}

// TestServerRejectsMalformedArgs: a frame whose payload does not
// decode, or whose type is unknown, gets a typed ErrInvalid reply, and
// the connection keeps serving.
func TestServerRejectsMalformedArgs(t *testing.T) {
	conn, _ := helloConn(t)
	bad := []wire.Frame{
		{Type: fSearch2, ID: 1, Payload: []byte{0x80}},                                 // truncated uvarint
		{Type: fFetch, ID: 2, Payload: append(wire.AppendString(nil, "/p"), 'x')},      // trailing byte
		{Type: fSearch2, ID: 3, Payload: appendSearchReq2(nil, "q", "/", 0, 1, 0)[:4]}, // cut short
		{Type: 0xee, ID: 4},
	}
	for _, f := range bad {
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(conn, maxFramePayload)
		if err != nil {
			t.Fatalf("server dropped the connection on frame %d: %v", f.ID, err)
		}
		if reply.Type != fErr || reply.ID != f.ID {
			t.Fatalf("reply to frame %d = type %d id %d, want fErr", f.ID, reply.Type, reply.ID)
		}
		if err := decodeWireError(string(reply.Payload)); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("reply to frame %d = %v, want a typed ErrInvalid", f.ID, err)
		}
	}
	if err := wire.WriteFrame(conn, wire.Frame{Type: fPing, ID: 9}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.ReadFrame(conn, maxFramePayload); err != nil || reply.Type != fPong {
		t.Fatalf("ping after malformed frames = type %d, %v", reply.Type, err)
	}
}

// TestServerBoundsLineLength: a frame declaring more than the payload
// bound is rejected before anything is allocated for it — the server
// closes that connection — and a string field above maxLine inside a
// well-sized frame is a typed error.
func TestServerBoundsLineLength(t *testing.T) {
	conn, c := helloConn(t)
	long := make([]byte, maxLine+1)
	for i := range long {
		long[i] = 'a'
	}
	if err := wire.WriteFrame(conn, wire.Frame{Type: fFetch, ID: 1, Payload: wire.AppendString(nil, string(long))}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadFrame(conn, maxFramePayload)
	if err != nil || reply.Type != fErr {
		t.Fatalf("over-long path: reply type %d, %v; want fErr", reply.Type, err)
	}
	if err := decodeWireError(string(reply.Payload)); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("over-long path = %v, want a typed ErrInvalid", err)
	}

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFramePayload+1<<20)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping from another client after an oversize frame: %v", err)
	}
}
