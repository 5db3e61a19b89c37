package remotefs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
	"hacfs/internal/wire"
)

// Volumes resolves tenant names to exported file systems and admits
// requests — the seam between the protocol layer and the multi-tenant
// serving layer (internal/serve implements it with quotas, admission
// control and fair scheduling). A single-volume server wraps its one
// file system in soloVolumes.
type Volumes interface {
	// Volume returns the file system serving the named tenant ("" is
	// the default volume).
	Volume(tenant string) (vfs.FileSystem, error)
	// Admit asks to run one operation for the tenant. It may block
	// until a fair-scheduling slot is free; the returned release must
	// be called when the operation finishes. A backpressure or
	// shutdown rejection comes back as a *vfs.PathError so it travels
	// the wire typed.
	Admit(tenant, op string) (release func(), err error)
}

// soloVolumes exports one file system as the default tenant, with no
// admission control — the pre-multi-tenant behavior.
type soloVolumes struct{ fsys vfs.FileSystem }

func (s soloVolumes) Volume(tenant string) (vfs.FileSystem, error) {
	if tenant != "" {
		return nil, &vfs.PathError{Op: "volume", Path: "/" + tenant, Err: vfs.ErrNotExist}
	}
	return s.fsys, nil
}

func (s soloVolumes) Admit(tenant, op string) (func(), error) { return func() {}, nil }

// Server exports file systems to any number of clients over the
// multiplexed binary framing.
type Server struct {
	*wire.ConnServer
	vols   Volumes
	logger *log.Logger
	obsv   *obs.Observer
}

// NewServer returns a server exporting fsys as its only volume. logger
// may be nil.
func NewServer(fsys vfs.FileSystem, logger *log.Logger) *Server {
	return NewHostServer(soloVolumes{fsys}, logger)
}

// NewHostServer returns a server routing requests through vols — the
// multi-tenant form (see internal/serve.Host).
func NewHostServer(vols Volumes, logger *log.Logger) *Server {
	s := &Server{vols: vols, logger: logger, obsv: obs.Default()}
	s.ConnServer = wire.NewConnServer(s.serveConn)
	return s
}

// SetObserver redirects the server's spans and slow-op log to o (they
// default to the process-wide obs.Default()). Call before Serve.
func (s *Server) SetObserver(o *obs.Observer) { s.obsv = o }

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Searcher is the optional content-search surface a served file system
// may provide; hac.FS implements it. The cursor contract is
// hac.FS.SearchPage's: after 0 starts, the returned next cursor resumes,
// 0 means no more pages.
type Searcher interface {
	SearchPage(query, scope string, after uint64, limit int) ([]string, uint64, error)
}

// ContextSearcher is Searcher with the request context threaded
// through, so a propagated trace (and tenant baggage) reaches the
// engine's spans; hac.FS implements it. The server prefers it when
// present.
type ContextSearcher interface {
	SearchPageContext(ctx context.Context, query, scope string, after uint64, limit int) ([]string, uint64, error)
}

// BlobSource is the optional content-addressed surface a served volume
// may provide (hac.FS over a cas substrate implements it, and serving
// wrappers forward it). It powers manifest-diff replication: a replica
// fetches the manifest, diffs blob hashes against its own store, and
// fetches only what it is missing.
type BlobSource interface {
	// CASManifest returns the live manifest of the volume's
	// content-addressed substrate.
	CASManifest() (*cas.Manifest, error)
	// CASBlobs returns the content of each requested blob, in request
	// order. A missing blob is an error wrapping vfs.ErrNotExist.
	CASBlobs(hashes []cas.Hash) ([][]byte, error)
}

// PathSyncer is the optional scope-consistency surface; hac.FS
// implements it (the paper's ssync command, served over the wire).
type PathSyncer interface {
	SyncPath(path string) error
}

// ContextSyncer is PathSyncer with the request context threaded
// through (see ContextSearcher); hac.FS implements it.
type ContextSyncer interface {
	SyncPathContext(ctx context.Context, path string) error
}

// handleState is one open file handle plus the lock that serializes
// multiplexed operations on it (vfs.File is not concurrency-safe).
type handleState struct {
	mu     sync.Mutex
	f      vfs.File
	tenant string
}

// session is one client connection's state. The handle table is locked
// because requests on one connection execute concurrently.
type session struct {
	vols Volumes
	obsv *obs.Observer

	mu         sync.Mutex
	handles    map[uint64]*handleState
	nextHandle uint64
}

func newSession(vols Volumes, obsv *obs.Observer) *session {
	return &session{vols: vols, obsv: obsv, handles: make(map[uint64]*handleState)}
}

func (sess *session) closeAll() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, h := range sess.handles {
		h.f.Close()
	}
	sess.handles = map[uint64]*handleState{}
}

func (sess *session) addHandle(f vfs.File, tenant string) uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.nextHandle++
	sess.handles[sess.nextHandle] = &handleState{f: f, tenant: tenant}
	return sess.nextHandle
}

func (sess *session) handle(id uint64) (*handleState, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	h, ok := sess.handles[id]
	return h, ok
}

func (sess *session) dropHandle(id uint64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	delete(sess.handles, id)
}

// Binary frame types.
const (
	rfReq  uint8 = 1 // client → server, payload = encoded request
	rfResp uint8 = 2 // server → client, payload = encoded response
	rfErr  uint8 = 3 // framing-version error, payload = message
)

// maxConnInflight bounds concurrently executing requests per
// connection, protecting the server from one hostile client.
const maxConnInflight = 256

func sendResp(w *wire.FrameWriter, id uint64, flags uint8, resp *response) error {
	return w.Send(wire.Frame{Type: rfResp, Flags: flags, ID: id, Payload: appendResponse(nil, resp)})
}

// malformed types a request frame the server could not decode, so the
// client sees vfs.ErrInvalid.
func malformed(err error) *wireError {
	return &wireError{Op: "decode", Kind: "Invalid", Msg: "remotefs: malformed request: " + err.Error()}
}

// serveConn answers the multiplexed binary framing: every request
// frame runs on its own goroutine (bounded), responses interleave by
// ID, and streamed searches emit one frame per page. A connection that
// does not open with the hello is closed.
func (s *Server) serveConn(conn net.Conn) {
	sess := newSession(s.vols, s.obsv)
	defer sess.closeAll()
	err := wire.ServeConn(conn, rfErr, maxFrameBuf, maxConnInflight, func(w *wire.FrameWriter, f wire.Frame) {
		if f.Type != rfReq {
			sendResp(w, f.ID, wire.FlagFinal, &response{Err: malformed(fmt.Errorf("unexpected frame type %d", f.Type))})
			return
		}
		var req request
		if err := decodeRequest(f.Payload, &req); err != nil {
			sendResp(w, f.ID, wire.FlagFinal, &response{Err: malformed(err)})
			return
		}
		parent := obs.SpanContext{Trace: f.Trace, Span: f.Span}
		if req.Op == opSearchStream {
			sess.streamSearch(context.Background(), w, f.ID, &req, parent)
			return
		}
		resp := sess.dispatch(context.Background(), &req, parent)
		if err := sendResp(w, f.ID, wire.FlagFinal, resp); err != nil {
			s.logf("remotefs: send: %v", err)
		}
	})
	if err != nil && !errors.Is(err, io.EOF) {
		s.logf("remotefs: %s: %v", conn.RemoteAddr(), err)
	}
}

// streamSearch walks the whole cursor server-side, emitting one
// response frame per page; the last page carries FlagFinal. Page size
// comes from req.N, an optional page budget from req.Size.
func (sess *session) streamSearch(ctx context.Context, w *wire.FrameWriter, id uint64, req *request, parent obs.SpanContext) {
	fail := func(we *wireError) { sendResp(w, id, wire.FlagFinal, &response{Err: we}) }
	fsys, tenant, release, we := sess.admit(req)
	if we != nil {
		fail(we)
		return
	}
	defer release()
	ctx = obs.WithTenant(ctx, tenant)
	sp, ctx := sess.startOp(ctx, req, tenant, parent)
	start := time.Now()
	var opErr error
	defer func() { sess.finishOp(ctx, sp, req, start, opErr) }()
	search, ok := searchFunc(ctx, fsys)
	if !ok {
		fail(&wireError{Kind: "Unsupported", Msg: "remotefs: file system is not searchable"})
		return
	}
	if req.Offset < 0 {
		fail(&wireError{Kind: "Invalid", Msg: "remotefs: negative search cursor"})
		return
	}
	pageSize := req.N
	if pageSize <= 0 {
		pageSize = 512
	}
	cursor := uint64(req.Offset)
	for page := 0; ; page++ {
		paths, next, err := search(req.Path2, req.Path, cursor, pageSize)
		if err != nil {
			opErr = err
			fail(encodeErr(err))
			return
		}
		if next > (1<<63 - 1) {
			fail(&wireError{Kind: "Invalid", Msg: "remotefs: search cursor overflow"})
			return
		}
		final := next == 0 || (req.Size > 0 && int64(page+1) >= req.Size)
		var flags uint8
		if final {
			flags = wire.FlagFinal
		}
		if err := sendResp(w, id, flags, &response{Strs: paths, Off: int64(next)}); err != nil {
			return
		}
		if final {
			return
		}
		cursor = next
	}
}

// admit resolves the request's tenant volume and passes admission
// control. Handle-bound operations charge the tenant the handle was
// opened for.
func (sess *session) admit(req *request) (vfs.FileSystem, string, func(), *wireError) {
	tenant := req.Tenant
	if req.Op >= opFileRead && req.Op <= opFileClose {
		if h, ok := sess.handle(req.Handle); ok {
			tenant = h.tenant
		}
	}
	fsys, err := sess.vols.Volume(tenant)
	if err != nil {
		return nil, tenant, nil, encodeErr(err)
	}
	release, err := sess.vols.Admit(tenant, opNames[req.Op])
	if err != nil {
		return nil, tenant, nil, encodeErr(err)
	}
	return fsys, tenant, release, nil
}

// startOp opens the server-side span for one request, parented to the
// span context the client shipped on the wire (zero parent = the
// request arrived untraced). Cheap ops only get a span when the client
// propagated a trace (so an untraced fread storm costs nothing); the
// semantic ops worth tracing standalone — search, streamed search,
// sync — always do.
func (sess *session) startOp(ctx context.Context, req *request, tenant string, parent obs.SpanContext) (*obs.Span, context.Context) {
	if !parent.Valid() {
		switch req.Op {
		case opSearch, opSearchStream, opSync:
		default:
			return nil, ctx
		}
	}
	var sp *obs.Span
	if tenant != "" {
		sp = sess.obsv.Tracer().StartRemote(parent, rfsSpanNames[req.Op], "tenant", tenant)
	} else {
		sp = sess.obsv.Tracer().StartRemote(parent, rfsSpanNames[req.Op])
	}
	if sp == nil {
		// Tracing disabled here; still forward the inbound trace so an
		// engine with its own observer can join it.
		return nil, obs.ContextWith(ctx, parent)
	}
	return sp, obs.ContextWithSpan(ctx, sp)
}

// finishOp closes the request's span and records it in the slow-op log
// when over threshold.
func (sess *session) finishOp(ctx context.Context, sp *obs.Span, req *request, start time.Time, err error) {
	sp.FinishErr(err)
	dur := time.Since(start)
	if slow := sess.obsv.Slow(); slow.Over(dur) {
		op := obs.SlowOp{
			Op:     rfsSpanNames[req.Op],
			Tenant: obs.TenantFromContext(ctx),
			Dur:    dur,
		}
		if sc, ok := obs.FromContext(ctx); ok {
			op.Trace = sc.Trace
		}
		switch req.Op {
		case opSearch, opSearchStream:
			op.Arg = req.Path2
		default:
			op.Arg = req.Path
		}
		if err != nil {
			op.Err = err.Error()
		}
		slow.Record(op)
	}
}

// searchFunc resolves the volume's search surface, preferring the
// context-threading form so the trace reaches the engine.
func searchFunc(ctx context.Context, fsys vfs.FileSystem) (func(query, scope string, after uint64, limit int) ([]string, uint64, error), bool) {
	if cs, ok := fsys.(ContextSearcher); ok {
		return func(query, scope string, after uint64, limit int) ([]string, uint64, error) {
			return cs.SearchPageContext(ctx, query, scope, after, limit)
		}, true
	}
	if sr, ok := fsys.(Searcher); ok {
		return sr.SearchPage, true
	}
	return nil, false
}

// dispatch admits and executes one request.
func (sess *session) dispatch(ctx context.Context, req *request, parent obs.SpanContext) *response {
	if req.Op == opPing {
		return &response{}
	}
	fsys, tenant, release, we := sess.admit(req)
	if we != nil {
		return &response{Err: we}
	}
	defer release()
	ctx = obs.WithTenant(ctx, tenant)
	sp, ctx := sess.startOp(ctx, req, tenant, parent)
	start := time.Now()
	resp := sess.exec(ctx, fsys, req)
	var err error
	if resp.Err != nil {
		err = errors.New(resp.Err.Msg)
	}
	sess.finishOp(ctx, sp, req, start, err)
	return resp
}

// exec performs one operation against the resolved volume.
func (sess *session) exec(ctx context.Context, fsys vfs.FileSystem, req *request) *response {
	switch req.Op {
	case opMkdir:
		return &response{Err: encodeErr(fsys.Mkdir(req.Path))}
	case opMkdirAll:
		return &response{Err: encodeErr(fsys.MkdirAll(req.Path))}
	case opOpenFile:
		f, err := fsys.OpenFile(req.Path, req.Flag)
		if err != nil {
			return &response{Err: encodeErr(err)}
		}
		return &response{Handle: sess.addHandle(f, req.Tenant)}
	case opReadFile:
		data, err := fsys.ReadFile(req.Path)
		return &response{Data: data, Err: encodeErr(err)}
	case opWriteFile:
		return &response{Err: encodeErr(fsys.WriteFile(req.Path, req.Data))}
	case opSymlink:
		return &response{Err: encodeErr(fsys.Symlink(req.Path2, req.Path))}
	case opReadlink:
		str, err := fsys.Readlink(req.Path)
		return &response{Str: str, Err: encodeErr(err)}
	case opRemove:
		return &response{Err: encodeErr(fsys.Remove(req.Path))}
	case opRemoveAll:
		return &response{Err: encodeErr(fsys.RemoveAll(req.Path))}
	case opRename:
		return &response{Err: encodeErr(fsys.Rename(req.Path, req.Path2))}
	case opStat:
		info, err := fsys.Stat(req.Path)
		return &response{Info: info, Err: encodeErr(err)}
	case opLstat:
		info, err := fsys.Lstat(req.Path)
		return &response{Info: info, Err: encodeErr(err)}
	case opReadDir:
		entries, err := fsys.ReadDir(req.Path)
		return &response{Entries: entries, Err: encodeErr(err)}
	case opManifest:
		bs, ok := fsys.(BlobSource)
		if !ok {
			return &response{Err: &wireError{Kind: "Unsupported", Msg: "remotefs: volume is not content-addressed"}}
		}
		m, err := bs.CASManifest()
		if err != nil {
			return &response{Err: encodeErr(err)}
		}
		return &response{Data: m.EncodeBinary()}
	case opBlobs:
		bs, ok := fsys.(BlobSource)
		if !ok {
			return &response{Err: &wireError{Kind: "Unsupported", Msg: "remotefs: volume is not content-addressed"}}
		}
		hashes, err := splitHashes(req.Data)
		if err != nil {
			return &response{Err: &wireError{Kind: "Invalid", Msg: err.Error()}}
		}
		blobs, err := bs.CASBlobs(hashes)
		if err != nil {
			return &response{Err: encodeErr(err)}
		}
		data, err := encodeBlobList(blobs)
		if err != nil {
			return &response{Err: &wireError{Kind: "Invalid", Msg: err.Error()}}
		}
		return &response{Data: data, N: len(blobs)}
	case opSync:
		if cs, ok := fsys.(ContextSyncer); ok {
			return &response{Err: encodeErr(cs.SyncPathContext(ctx, req.Path))}
		}
		ps, ok := fsys.(PathSyncer)
		if !ok {
			return &response{Err: &wireError{Kind: "Unsupported", Msg: "remotefs: file system has no semantic layer"}}
		}
		return &response{Err: encodeErr(ps.SyncPath(req.Path))}
	case opSearch:
		search, ok := searchFunc(ctx, fsys)
		if !ok {
			return &response{Err: &wireError{Kind: "Unsupported", Msg: "remotefs: file system is not searchable"}}
		}
		if req.Offset < 0 {
			return &response{Err: &wireError{Kind: "Invalid", Msg: "remotefs: negative search cursor"}}
		}
		paths, next, err := search(req.Path2, req.Path, uint64(req.Offset), req.N)
		if err != nil {
			return &response{Err: encodeErr(err)}
		}
		if next > (1<<63 - 1) {
			return &response{Err: &wireError{Kind: "Invalid", Msg: "remotefs: search cursor overflow"}}
		}
		return &response{Strs: paths, Off: int64(next)}
	}

	// Handle-based operations.
	h, ok := sess.handle(req.Handle)
	if !ok {
		return &response{Err: &wireError{Kind: "Closed", Msg: "remotefs: unknown handle"}}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.f
	switch req.Op {
	case opFileRead:
		n := req.N
		if n <= 0 || n > maxIO {
			n = 64 << 10
		}
		buf := make([]byte, n)
		rn, err := f.Read(buf)
		resp := &response{Data: buf[:rn], N: rn}
		if err == io.EOF {
			resp.EOF = true
		} else if err != nil {
			resp.Err = encodeErr(err)
		}
		return resp
	case opFileReadAt:
		n := req.N
		if n <= 0 || n > maxIO {
			n = 64 << 10
		}
		buf := make([]byte, n)
		rn, err := f.ReadAt(buf, req.Offset)
		resp := &response{Data: buf[:rn], N: rn}
		if err == io.EOF {
			resp.EOF = true
		} else if err != nil {
			resp.Err = encodeErr(err)
		}
		return resp
	case opFileWrite:
		n, err := f.Write(req.Data)
		return &response{N: n, Err: encodeErr(err)}
	case opFileWriteAt:
		n, err := f.WriteAt(req.Data, req.Offset)
		return &response{N: n, Err: encodeErr(err)}
	case opFileSeek:
		off, err := f.Seek(req.Offset, req.Whence)
		return &response{Off: off, Err: encodeErr(err)}
	case opFileTruncate:
		return &response{Err: encodeErr(f.Truncate(req.Size))}
	case opFileStat:
		info, err := f.Stat()
		return &response{Info: info, Err: encodeErr(err)}
	case opFileClose:
		sess.dropHandle(req.Handle)
		return &response{Err: encodeErr(f.Close())}
	default:
		return &response{Err: &wireError{Kind: "Unsupported", Msg: "remotefs: unknown op"}}
	}
}
