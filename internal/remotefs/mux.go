package remotefs

import (
	"context"
	"fmt"
	"io"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// MuxClient is a vfs.FileSystem backed by a remote Server over the
// multiplexed binary framing: any number of goroutines issue requests
// concurrently over ONE connection, each tagged with a request ID.
// Views onto different tenants of the same server share the connection
// (see Tenant).
type MuxClient struct {
	tenant string
	mux    *wire.Mux
	met    clientMetrics
	obsv   *obs.Observer
}

var _ vfs.FileSystem = (*MuxClient)(nil)

// DialMux creates a binary-protocol client for the server at addr,
// addressing the server's default volume. The connection is
// established lazily.
func DialMux(addr string) *MuxClient {
	return &MuxClient{
		mux:  wire.NewMux(addr, 10*time.Second, maxFrameBuf),
		met:  newClientMetrics(obs.Default()),
		obsv: obs.Default(),
	}
}

// Tenant returns a view of the same connection addressing the named
// tenant volume. Views are independent and safe for concurrent use.
func (c *MuxClient) Tenant(name string) *MuxClient {
	view := *c
	view.tenant = name
	return &view
}

// SetTimeout changes the dial / per-request deadline.
func (c *MuxClient) SetTimeout(d time.Duration) { c.mux.SetTimeout(d) }

// SetObserver redirects the client's metrics, spans and slow-op log
// to o.
func (c *MuxClient) SetObserver(o *obs.Observer) {
	c.met = newClientMetrics(o)
	c.obsv = o
}

// startRPC opens the client-side span for one remote operation: the
// local fragment of the distributed trace, parent of the server's
// span (the span's context is handed straight to the mux for frame
// injection — the client never needs it back out of a context, so
// nothing is re-wrapped). Only the semantic ops — search, streamed
// search, sync — mint a trace of their own; everything else joins a
// trace only when the caller's ctx already carries one (a span started
// with no trace in ctx would orphan otherwise-untraced cheap ops into
// single-span traces).
func (c *MuxClient) startRPC(ctx context.Context, op opCode) (*obs.Span, obs.SpanContext) {
	sc, traced := obs.FromContext(ctx)
	if !traced {
		switch op {
		case opSearch, opSearchStream, opSync:
		default:
			return nil, sc
		}
	}
	var sp *obs.Span
	if c.tenant != "" {
		sp = c.obsv.Tracer().StartRemote(sc, rpcSpanNames[op], "addr", c.mux.Addr(), "tenant", c.tenant)
	} else {
		sp = c.obsv.Tracer().StartRemote(sc, rpcSpanNames[op], "addr", c.mux.Addr())
	}
	if sp == nil {
		// Tracing disabled here; still forward the caller's trace so the
		// server can join it.
		return nil, sc
	}
	return sp, sp.Context()
}

// Close drops the connection (shared by all tenant views); later
// requests re-dial.
func (c *MuxClient) Close() error { return c.mux.Close() }

// call performs one framed round trip.
func (c *MuxClient) call(req *request) (*response, error) {
	return c.callCtx(context.Background(), req)
}

func (c *MuxClient) callCtx(ctx context.Context, req *request) (_ *response, err error) {
	if m, ok := c.met.ops[req.Op]; ok {
		defer m.done(time.Now(), &err)
	}
	sp, sc := c.startRPC(ctx, req.Op)
	defer func() { sp.FinishErr(err) }()
	req.Tenant = c.tenant
	f, err := c.mux.CallOne(ctx, sc, rfReq, appendRequest(nil, req), idempotent(req.Op))
	if err != nil {
		return nil, fmt.Errorf("remotefs: %w", err)
	}
	return decodeRespFrame(f)
}

// idempotent reports whether op is safe to send twice, so a request
// lost with its connection may be re-sent: it only reads, or (ssync)
// converges to the same state. Writes are not — a lost response may
// hide one that ran — nor is anything that opens or uses a file
// handle, which a restarted server never issued.
func idempotent(op opCode) bool {
	switch op {
	case opPing, opStat, opLstat, opReadDir, opReadFile, opReadlink,
		opSearch, opSearchStream, opSync, opManifest, opBlobs:
		return true
	}
	return false
}

func decodeRespFrame(f wire.Frame) (*response, error) {
	switch f.Type {
	case rfResp:
		var resp response
		if err := decodeResponse(f.Payload, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	case rfErr:
		return nil, fmt.Errorf("remotefs: server: %s", f.Payload)
	default:
		return nil, fmt.Errorf("remotefs: unexpected frame type %d", f.Type)
	}
}

// do is call for operations whose only interesting result is an error.
func (c *MuxClient) do(req *request) error {
	resp, err := c.call(req)
	if err != nil {
		return err
	}
	return resp.Err.decode()
}

// Ping checks liveness.
func (c *MuxClient) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness, bounded by ctx.
func (c *MuxClient) PingContext(ctx context.Context) error {
	resp, err := c.callCtx(ctx, &request{Op: opPing})
	if err != nil {
		return err
	}
	return resp.Err.decode()
}

// SyncPath restores scope consistency for the semantic directory at
// path on the served volume (the paper's ssync, over the wire).
func (c *MuxClient) SyncPath(path string) error {
	return c.SyncPathContext(context.Background(), path)
}

// SyncPathContext is SyncPath bounded by ctx.
func (c *MuxClient) SyncPathContext(ctx context.Context, path string) error {
	resp, err := c.callCtx(ctx, &request{Op: opSync, Path: path})
	if err != nil {
		return err
	}
	return resp.Err.decode()
}

// SearchPage runs a content query on the served volume and returns one
// cursor page of matching paths: query matches under scope, starting at
// cursor after (0 = from the start), at most limit of them; the
// returned cursor resumes the walk (0 = done). The server's volume must
// implement Searcher; otherwise the call fails with vfs.ErrUnsupported.
func (c *MuxClient) SearchPage(ctx context.Context, query, scope string, after uint64, limit int) ([]string, uint64, error) {
	if after > (1<<63 - 1) {
		return nil, 0, fmt.Errorf("remotefs: search cursor overflow")
	}
	resp, err := c.callCtx(ctx, &request{Op: opSearch, Path: scope, Path2: query, Offset: int64(after), N: limit})
	if err != nil {
		return nil, 0, err
	}
	if err := resp.Err.decode(); err != nil {
		return nil, 0, err
	}
	return resp.Strs, uint64(resp.Off), nil
}

// SearchStream runs a content query and streams every result page
// through fn: the server walks the cursor itself and ships one framed
// page per callback, so a large result needs one request, not one
// round trip per page. pageSize <= 0 uses the server default.
func (c *MuxClient) SearchStream(ctx context.Context, query, scope string, pageSize int, fn func(paths []string) error) (err error) {
	if m, ok := c.met.ops[opSearchStream]; ok {
		defer m.done(time.Now(), &err)
	}
	sp, sc := c.startRPC(ctx, opSearchStream)
	defer func() { sp.FinishErr(err) }()
	req := &request{Op: opSearchStream, Tenant: c.tenant, Path: scope, Path2: query, N: pageSize}
	st, err := c.mux.Call(ctx, sc, rfReq, appendRequest(nil, req), true)
	if err != nil {
		return fmt.Errorf("remotefs: %w", err)
	}
	defer st.Cancel()
	for {
		f, err := st.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		resp, err := decodeRespFrame(f)
		if err != nil {
			return err
		}
		if err := resp.Err.decode(); err != nil {
			return err
		}
		if len(resp.Strs) > 0 || f.Final() {
			if err := fn(resp.Strs); err != nil {
				return err
			}
		}
		if f.Final() {
			return nil
		}
	}
}

// ReadFileContext reads a whole remote file, bounded by ctx.
func (c *MuxClient) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.callCtx(ctx, &request{Op: opReadFile, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Data, resp.Err.decode()
}

// ReadDirContext lists a remote directory, bounded by ctx.
func (c *MuxClient) ReadDirContext(ctx context.Context, path string) ([]vfs.DirEntry, error) {
	resp, err := c.callCtx(ctx, &request{Op: opReadDir, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Entries, resp.Err.decode()
}

// StatContext returns remote metadata, bounded by ctx.
func (c *MuxClient) StatContext(ctx context.Context, path string) (vfs.Info, error) {
	resp, err := c.callCtx(ctx, &request{Op: opStat, Path: path})
	if err != nil {
		return vfs.Info{}, err
	}
	return resp.Info, resp.Err.decode()
}

// Mkdir creates a directory on the remote volume.
func (c *MuxClient) Mkdir(path string) error {
	return c.do(&request{Op: opMkdir, Path: path})
}

// MkdirAll creates a directory and missing parents.
func (c *MuxClient) MkdirAll(path string) error {
	return c.do(&request{Op: opMkdirAll, Path: path})
}

// Create creates or truncates a remote file.
func (c *MuxClient) Create(path string) (vfs.File, error) {
	return c.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

// Open opens a remote file for reading.
func (c *MuxClient) Open(path string) (vfs.File, error) {
	return c.OpenFile(path, vfs.ORead)
}

// OpenFile opens a remote file.
func (c *MuxClient) OpenFile(path string, flag int) (vfs.File, error) {
	resp, err := c.call(&request{Op: opOpenFile, Path: path, Flag: flag})
	if err != nil {
		return nil, err
	}
	if err := resp.Err.decode(); err != nil {
		return nil, err
	}
	return &muxFile{c: c, handle: resp.Handle, name: path}, nil
}

// ReadFile reads a whole remote file.
func (c *MuxClient) ReadFile(path string) ([]byte, error) {
	resp, err := c.call(&request{Op: opReadFile, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Data, resp.Err.decode()
}

// WriteFile writes a whole remote file.
func (c *MuxClient) WriteFile(path string, data []byte) error {
	return c.do(&request{Op: opWriteFile, Path: path, Data: data})
}

// Symlink creates a remote symbolic link.
func (c *MuxClient) Symlink(target, link string) error {
	return c.do(&request{Op: opSymlink, Path: link, Path2: target})
}

// Readlink reads a remote symbolic link.
func (c *MuxClient) Readlink(path string) (string, error) {
	resp, err := c.call(&request{Op: opReadlink, Path: path})
	if err != nil {
		return "", err
	}
	return resp.Str, resp.Err.decode()
}

// Remove deletes one remote object.
func (c *MuxClient) Remove(path string) error {
	return c.do(&request{Op: opRemove, Path: path})
}

// RemoveAll deletes a remote subtree.
func (c *MuxClient) RemoveAll(path string) error {
	return c.do(&request{Op: opRemoveAll, Path: path})
}

// Rename moves a remote object.
func (c *MuxClient) Rename(oldPath, newPath string) error {
	return c.do(&request{Op: opRename, Path: oldPath, Path2: newPath})
}

// Stat returns remote metadata, following symlinks.
func (c *MuxClient) Stat(path string) (vfs.Info, error) {
	resp, err := c.call(&request{Op: opStat, Path: path})
	if err != nil {
		return vfs.Info{}, err
	}
	return resp.Info, resp.Err.decode()
}

// Lstat returns remote metadata without following a final symlink.
func (c *MuxClient) Lstat(path string) (vfs.Info, error) {
	resp, err := c.call(&request{Op: opLstat, Path: path})
	if err != nil {
		return vfs.Info{}, err
	}
	return resp.Info, resp.Err.decode()
}

// ReadDir lists a remote directory.
func (c *MuxClient) ReadDir(path string) ([]vfs.DirEntry, error) {
	resp, err := c.call(&request{Op: opReadDir, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Entries, resp.Err.decode()
}

// muxFile is an open handle on the server, reached over the shared
// multiplexed connection.
type muxFile struct {
	c      *MuxClient
	handle uint64
	name   string
}

var _ vfs.File = (*muxFile)(nil)

func (f *muxFile) Name() string { return f.name }

func (f *muxFile) Read(p []byte) (int, error) {
	resp, err := f.c.call(&request{Op: opFileRead, Handle: f.handle, N: len(p)})
	if err != nil {
		return 0, err
	}
	if err := resp.Err.decode(); err != nil {
		return 0, err
	}
	n := copy(p, resp.Data)
	if resp.EOF {
		return n, io.EOF
	}
	return n, nil
}

func (f *muxFile) ReadAt(p []byte, off int64) (int, error) {
	resp, err := f.c.call(&request{Op: opFileReadAt, Handle: f.handle, N: len(p), Offset: off})
	if err != nil {
		return 0, err
	}
	if err := resp.Err.decode(); err != nil {
		return 0, err
	}
	n := copy(p, resp.Data)
	if resp.EOF {
		return n, io.EOF
	}
	return n, nil
}

func (f *muxFile) Write(p []byte) (int, error) {
	resp, err := f.c.call(&request{Op: opFileWrite, Handle: f.handle, Data: p})
	if err != nil {
		return 0, err
	}
	return resp.N, resp.Err.decode()
}

func (f *muxFile) WriteAt(p []byte, off int64) (int, error) {
	resp, err := f.c.call(&request{Op: opFileWriteAt, Handle: f.handle, Data: p, Offset: off})
	if err != nil {
		return 0, err
	}
	return resp.N, resp.Err.decode()
}

func (f *muxFile) Seek(offset int64, whence int) (int64, error) {
	resp, err := f.c.call(&request{Op: opFileSeek, Handle: f.handle, Offset: offset, Whence: whence})
	if err != nil {
		return 0, err
	}
	return resp.Off, resp.Err.decode()
}

func (f *muxFile) Truncate(size int64) error {
	resp, err := f.c.call(&request{Op: opFileTruncate, Handle: f.handle, Size: size})
	if err != nil {
		return err
	}
	return resp.Err.decode()
}

func (f *muxFile) Stat() (vfs.Info, error) {
	resp, err := f.c.call(&request{Op: opFileStat, Handle: f.handle})
	if err != nil {
		return vfs.Info{}, err
	}
	return resp.Info, resp.Err.decode()
}

func (f *muxFile) Close() error {
	resp, err := f.c.call(&request{Op: opFileClose, Handle: f.handle})
	if err != nil {
		return err
	}
	return resp.Err.decode()
}
