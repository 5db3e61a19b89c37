package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// Binary protocol (DESIGN.md §12). A connection opens with the wire
// hello and then carries length-prefixed frames; one that does not
// open with the hello is closed. Frame types:
//
//	fPing    → fPong
//	fSearch2 → fPage2* — the server pages the result through the
//	           cursor machinery and streams one fPage2 frame per page;
//	           the last carries FlagFinal. Payload: after(u64)
//	           pageSize(varint) limitPages(varint, 0 = all)
//	           scope(string, "" = everywhere) query(string). Each page
//	           leads with the index epoch it was served from (DESIGN.md
//	           §14), then the next cursor and the paths.
//	fFetch   → fData
//	fResync  → fOK — rebuild the served index from its document tree.
//	fStatus  → fStatV — epoch(uvarint) version(uvarint) docs(uvarint).
//	fErr     ends any request with a message (typed via errors.go).
//
// Many requests may be in flight per connection; responses interleave
// by request ID. Codes 3 and 4 are reserved so that no type code a
// deployed peer knows changes meaning.
const (
	fPing uint8 = iota + 1
	fPong
	_ // reserved
	_ // reserved
	fFetch
	fData
	fErr
	fSearch2
	fPage2
	fResync
	fOK
	fStatus
	fStatV
)

// maxFramePayload bounds one binary frame's payload: a fetched
// document plus slack for framing fields.
const maxFramePayload = maxFetch + 64*1024

// maxPageEntries bounds the declared path count of one result page.
const maxPageEntries = 1 << 20

// maxConnInflight bounds concurrently executing requests per
// connection.
const maxConnInflight = 64

// appendSearchReq2 encodes an fSearch2 payload.
func appendSearchReq2(b []byte, q, scope string, after uint64, pageSize, limitPages int) []byte {
	b = wire.AppendUvarint(b, after)
	b = wire.AppendVarint(b, int64(pageSize))
	b = wire.AppendVarint(b, int64(limitPages))
	b = wire.AppendString(b, scope)
	b = wire.AppendString(b, q)
	return b
}

// decodeSearchReq2 decodes an fSearch2 payload.
func decodeSearchReq2(payload []byte) (q, scope string, after uint64, pageSize, limitPages int, err error) {
	d := wire.NewDec(payload)
	after = d.Uvarint()
	pageSize = d.Int()
	limitPages = d.Int()
	scope = d.String(maxLine)
	q = d.String(maxLine)
	return q, scope, after, pageSize, limitPages, d.Close()
}

// appendPage2 encodes an fPage2 payload: the serving epoch, the next
// cursor and one page of paths.
func appendPage2(b []byte, epoch, next uint64, paths []string) []byte {
	b = wire.AppendUvarint(b, epoch)
	b = wire.AppendUvarint(b, next)
	b = wire.AppendStrings(b, paths)
	return b
}

// decodePage2 decodes an fPage2 payload.
func decodePage2(payload []byte) (paths []string, next, epoch uint64, err error) {
	d := wire.NewDec(payload)
	epoch = d.Uvarint()
	next = d.Uvarint()
	paths = d.Strings(maxLine, maxPageEntries)
	return paths, next, epoch, d.Close()
}

// serveConn answers framed requests on conn until it dies. Each
// request runs on its own goroutine (bounded per connection) so slow
// searches do not block pings.
func (s *Server) serveConn(conn net.Conn) {
	err := wire.ServeConn(conn, fErr, maxFramePayload, maxConnInflight, s.handleFrame)
	if err != nil && !errors.Is(err, io.EOF) {
		s.logf("remote: %s: %v", conn.RemoteAddr(), err)
	}
}

func sendErr(w *wire.FrameWriter, id uint64, err error) error {
	return w.Send(wire.Frame{Type: fErr, Flags: wire.FlagFinal, ID: id, Payload: []byte(encodeWireError(err))})
}

// malformed types a request the server could not decode.
func malformed(op string, err error) error {
	return &vfs.PathError{Op: op, Err: fmt.Errorf("%w: %v", vfs.ErrInvalid, err)}
}

func (s *Server) handleFrame(w *wire.FrameWriter, f wire.Frame) {
	// A traced frame carries the caller's span context in its header;
	// joining it links the server's spans into the client's trace.
	ctx := context.Background()
	if sc := (obs.SpanContext{Trace: f.Trace, Span: f.Span}); sc.Valid() {
		ctx = obs.ContextWith(ctx, sc)
	}
	switch f.Type {
	case fPing:
		w.Send(wire.Frame{Type: fPong, Flags: wire.FlagFinal, ID: f.ID})
	case fSearch2:
		q, scope, after, pageSize, limitPages, err := decodeSearchReq2(f.Payload)
		if err != nil {
			sendErr(w, f.ID, malformed("search", err))
			return
		}
		s.streamSearch(ctx, w, f.ID, q, scope, after, pageSize, limitPages)
	case fResync:
		sp, opCtx := s.startOp(ctx, "remote.Resync", "")
		start := time.Now()
		err := s.backend.Resync(opCtx)
		s.finishOp(sp, "remote.Resync", "", start, err)
		if err != nil {
			sendErr(w, f.ID, err)
			return
		}
		w.Send(wire.Frame{Type: fOK, Flags: wire.FlagFinal, ID: f.ID})
	case fStatus:
		epoch, version, docs := s.backend.Status()
		var b []byte
		b = wire.AppendUvarint(b, epoch)
		b = wire.AppendUvarint(b, version)
		b = wire.AppendUvarint(b, uint64(docs))
		w.Send(wire.Frame{Type: fStatV, Flags: wire.FlagFinal, ID: f.ID, Payload: b})
	case fFetch:
		d := wire.NewDec(f.Payload)
		path := d.String(maxLine)
		if err := d.Close(); err != nil {
			sendErr(w, f.ID, malformed("fetch", err))
			return
		}
		data, err := s.backend.Fetch(path)
		if err != nil {
			sendErr(w, f.ID, err)
			return
		}
		if len(data) > maxFetch {
			sendErr(w, f.ID, errors.New("document too large"))
			return
		}
		w.Send(wire.Frame{Type: fData, Flags: wire.FlagFinal, ID: f.ID, Payload: data})
	default:
		sendErr(w, f.ID, malformed("frame", fmt.Errorf("unknown frame type %d", f.Type)))
	}
}

// streamSearch answers one fSearch2 request: it pages the result
// through the cursor machinery and streams one fPage2 frame per page,
// the last carrying FlagFinal.
func (s *Server) streamSearch(ctx context.Context, w *wire.FrameWriter, id uint64, q, scope string, after uint64, pageSize, limitPages int) {
	if pageSize <= 0 {
		pageSize = 512
	}
	const opName = "remote.Search"
	sp, opCtx := s.startOp(ctx, opName, q)
	start := time.Now()

	// Stream pages until the cursor runs out or the client's page
	// budget is spent.
	cursor := after
	for page := 0; ; page++ {
		paths, next, epoch, err := s.backend.SearchPageUnder(opCtx, q, scope, cursor, pageSize)
		if err != nil {
			s.finishOp(sp, opName, q, start, err)
			sendErr(w, id, err)
			return
		}
		final := next == 0 || (limitPages > 0 && page+1 >= limitPages)
		fr := wire.Frame{Type: fPage2, ID: id, Payload: appendPage2(nil, epoch, next, paths)}
		if final {
			fr.Flags = wire.FlagFinal
		}
		if err := w.Send(fr); err != nil {
			s.finishOp(sp, opName, q, start, err)
			return
		}
		if final {
			s.finishOp(sp, opName, q, start, nil)
			return
		}
		cursor = next
	}
}

// BinClient speaks the binary protocol and implements hac.Namespace
// and hac.ContextNamespace. Many requests proceed concurrently on one
// connection, and search results stream in pages.
type BinClient struct {
	name string
	mux  *wire.Mux
	met  clientMetrics
	obsv *obs.Observer
}

// DialBin creates a binary-protocol client for the server at addr.
// name becomes the namespace name inside the HAC volume. No connection
// is made until the first request.
func DialBin(name, addr string) *BinClient {
	return &BinClient{
		name: name,
		mux:  wire.NewMux(addr, 10*time.Second, maxFramePayload),
		met:  newClientMetrics(obs.Default()),
		obsv: obs.Default(),
	}
}

// SetObserver redirects the client's metrics and spans.
func (c *BinClient) SetObserver(o *obs.Observer) {
	if o == nil {
		o = obs.Discard()
	}
	c.met = newClientMetrics(o)
	c.obsv = o
}

// startRPC opens a client span for one search call. The returned
// context carries the span, so the mux stamps its trace header onto
// the request frame and the server joins the same trace.
func (c *BinClient) startRPC(ctx context.Context, name, q string) (*obs.Span, context.Context) {
	sp, ctx := c.obsv.Tracer().StartCtx(ctx, name)
	sp.Annotate("query", q)
	return sp, ctx
}

// SetTimeout changes the dial/request deadline.
func (c *BinClient) SetTimeout(d time.Duration) { c.mux.SetTimeout(d) }

// Name returns the namespace name.
func (c *BinClient) Name() string { return c.name }

// Close tears down the connection; later requests re-dial.
func (c *BinClient) Close() error { return c.mux.Close() }

// Ping checks liveness.
func (c *BinClient) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness, bounded by ctx.
func (c *BinClient) PingContext(ctx context.Context) (err error) {
	defer c.met.ping.done(time.Now(), &err)
	f, err := c.call(ctx, fPing, nil)
	if err != nil {
		return err
	}
	if f.Type != fPong {
		return c.unexpected(f)
	}
	return nil
}

// call performs one single-frame round trip. Every request of this
// protocol only reads or rebuilds the server's index, so all are sent
// as idempotent: one lost to a dropped connection is re-sent once.
func (c *BinClient) call(ctx context.Context, typ uint8, payload []byte) (wire.Frame, error) {
	sc, _ := obs.FromContext(ctx)
	return c.mux.CallOne(ctx, sc, typ, payload, true)
}

func (c *BinClient) unexpected(f wire.Frame) error {
	if f.Type == fErr {
		return decodeWireError(string(f.Payload))
	}
	return fmt.Errorf("remote: unexpected frame type %d", f.Type)
}

// Search evaluates a query on the remote system, streaming all result
// pages.
func (c *BinClient) Search(q string) ([]string, error) {
	return c.SearchContext(context.Background(), q)
}

// SearchContext is Search bounded by ctx.
func (c *BinClient) SearchContext(ctx context.Context, q string) ([]string, error) {
	return c.SearchUnderContext(ctx, q, "")
}

// SearchPageUnder fetches one scope-restricted cursor page, plus the
// index epoch the server pinned it against — the shard-facing call a
// cluster coordinator fans out (DESIGN.md §14).
func (c *BinClient) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) (_ []string, _ uint64, _ uint64, err error) {
	defer c.met.search.done(time.Now(), &err)
	sp, ctx := c.startRPC(ctx, "rpc.remote.Search", q)
	defer func() { sp.FinishErr(err) }()
	var out []string
	var nextOut, epochOut uint64
	err = c.searchPages(ctx, q, scope, after, limit, 1, func(paths []string, next, epoch uint64) {
		out = append(out, paths...)
		nextOut, epochOut = next, epoch
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return out, nextOut, epochOut, nil
}

// SearchUnderContext streams every result page of a scope-restricted
// query ("" = everywhere) and returns all matching paths.
func (c *BinClient) SearchUnderContext(ctx context.Context, q, scope string) (_ []string, err error) {
	defer c.met.search.done(time.Now(), &err)
	sp, ctx := c.startRPC(ctx, "rpc.remote.Search", q)
	defer func() { sp.FinishErr(err) }()
	var out []string
	err = c.searchPages(ctx, q, scope, 0, 0, 0, func(paths []string, _, _ uint64) {
		out = append(out, paths...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// searchPages issues one search call and invokes fn for every streamed
// page frame.
func (c *BinClient) searchPages(ctx context.Context, q, scope string, after uint64, pageSize, limitPages int, fn func([]string, uint64, uint64)) error {
	sc, _ := obs.FromContext(ctx)
	st, err := c.mux.Call(ctx, sc, fSearch2, appendSearchReq2(nil, q, scope, after, pageSize, limitPages), true)
	if err != nil {
		return err
	}
	defer st.Cancel()
	for {
		f, err := st.Next(ctx)
		if err != nil {
			return err
		}
		if f.Type != fPage2 {
			return c.unexpected(f)
		}
		paths, next, epoch, err := decodePage2(f.Payload)
		if err != nil {
			return err
		}
		fn(paths, next, epoch)
		if f.Final() {
			return nil
		}
	}
}

// Resync asks the server to rebuild its index from the document tree.
func (c *BinClient) Resync(ctx context.Context) (err error) {
	sp, ctx := c.startRPC(ctx, "rpc.remote.Resync", "")
	defer func() { sp.FinishErr(err) }()
	f, err := c.call(ctx, fResync, nil)
	if err != nil {
		return err
	}
	if f.Type != fOK {
		return c.unexpected(f)
	}
	return nil
}

// Status reports the server's index epoch, mutation version and live
// document count.
func (c *BinClient) Status(ctx context.Context) (epoch, version uint64, docs int, err error) {
	f, err := c.call(ctx, fStatus, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if f.Type != fStatV {
		return 0, 0, 0, c.unexpected(f)
	}
	d := wire.NewDec(f.Payload)
	epoch = d.Uvarint()
	version = d.Uvarint()
	docs = int(d.Uvarint())
	return epoch, version, docs, d.Close()
}

// Fetch retrieves one remote document.
func (c *BinClient) Fetch(path string) ([]byte, error) {
	return c.FetchContext(context.Background(), path)
}

// FetchContext is Fetch bounded by ctx.
func (c *BinClient) FetchContext(ctx context.Context, path string) (_ []byte, err error) {
	defer c.met.fetch.done(time.Now(), &err)
	f, err := c.call(ctx, fFetch, wire.AppendString(nil, path))
	if err != nil {
		return nil, err
	}
	if f.Type != fData {
		return nil, c.unexpected(f)
	}
	return f.Payload, nil
}
