package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Server-side plumbing shared by every protocol server
// ---------------------------------------------------------------------

// FrameWriter serializes frames from many goroutines onto one
// connection. Frames accumulate in a buffered writer and only the last
// sender in a pack flushes, so one syscall carries a whole batch of
// frames under load while an idle connection still sees every frame
// immediately.
type FrameWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	conn    net.Conn // w, when it takes write deadlines
	writers atomic.Int64
}

// NewFrameWriter returns a writer framing onto w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	conn, _ := w.(net.Conn)
	return &FrameWriter{bw: bufio.NewWriterSize(w, 64<<10), conn: conn}
}

// Send writes one frame, flushing when no other sender is queued
// behind it.
func (w *FrameWriter) Send(f Frame) error { return w.SendBy(f, time.Time{}) }

// SendBy is Send bounded by a write deadline (zero = none), applied
// when the underlying writer is a net.Conn. The deadline covers this
// frame and any flush it performs.
func (w *FrameWriter) SendBy(f Frame, deadline time.Time) error {
	w.writers.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if !deadline.IsZero() && w.conn != nil {
		w.conn.SetWriteDeadline(deadline)
		defer w.conn.SetWriteDeadline(time.Time{})
	}
	err := WriteFrame(w.bw, f)
	if w.writers.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	return err
}

// ServeConn runs the server side of one framed connection. It reads
// the client's hello and answers with the server's own, so a client
// speaking another framing version reads it and reports a clean
// versioned error instead of misparsing a frame; on a version mismatch
// the client also gets one final frame of errType carrying the reason.
// A connection that does not open with the hello gets nothing back.
// Then every request frame runs handle on its own goroutine, at most
// maxInflight at once, so a slow request does not hold up the others;
// handle answers through w. ServeConn returns once the connection has
// failed and every handler has returned. The error is the hello's: nil
// once frames were served.
func ServeConn(conn io.ReadWriter, errType uint8, maxPayload uint32, maxInflight int, handle func(w *FrameWriter, f Frame)) error {
	r := bufio.NewReader(conn)
	ver, err := ReadHello(r)
	if err != nil {
		return err
	}
	if err := WriteHello(conn, Version); err != nil {
		return err
	}
	w := NewFrameWriter(conn)
	if ver != Version {
		msg := fmt.Sprintf("unsupported protocol version %d (server speaks %d)", ver, Version)
		w.Send(Frame{Type: errType, Flags: FlagFinal, Payload: []byte(msg)})
		return fmt.Errorf("%w: client speaks %d, server %d", ErrVersion, ver, Version)
	}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, err := ReadFrame(r, maxPayload)
		if err != nil {
			return nil
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			handle(w, f)
		}()
	}
}

// ConnServer is the accept loop every protocol server shares: it
// serves each accepted connection on its own goroutine, closes it when
// the handler returns, and tracks live connections so Close can end
// them. Protocol servers embed it.
type ConnServer struct {
	handle func(net.Conn)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewConnServer returns an accept loop running handle for every
// connection.
func NewConnServer(handle func(net.Conn)) *ConnServer {
	return &ConnServer{handle: handle, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close is called. It always
// returns a non-nil error; after Close the error is net.ErrClosed.
func (s *ConnServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves. Use net.Listen + Serve to
// learn the bound port first.
func (s *ConnServer) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// CloseListener stops accepting new connections but leaves the live
// ones serving — the first step of a graceful shutdown (drain, then
// Close).
func (s *ConnServer) CloseListener() {
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()
}

// Close stops accepting, closes every live connection and waits for
// their handlers to return.
func (s *ConnServer) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
