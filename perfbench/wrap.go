package main

import (
	"context"
	"sync"
	"time"

	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// subFS wraps the substrate under a hac.FS. In a traced run it records a
// span per call. Under keeps the program's own unwrapping working (hac
// finds its *cas.FS for v4 images, serve for unique-byte quotas), and
// Snapshot forwards MemFS's snapshotting for v3 images.
type subFS struct {
	inner vfs.FileSystem
	layer string // "cas" or "vfs"
	tr    *tracer
	ln    *lane // the one stream using this substrate; nil when shared
}

func newSubFS(inner vfs.FileSystem, tr *tracer, ln *lane) *subFS {
	layer := "vfs"
	if _, ok := inner.(*cas.FS); ok {
		layer = "cas"
	}
	return &subFS{inner: inner, layer: layer, tr: tr, ln: ln}
}

// Under returns the wrapped substrate.
func (f *subFS) Under() vfs.FileSystem { return f.inner }

// Snapshot forwards vfs.Snapshotter; a substrate without it yields nil,
// which SaveVolume reports as unsupported.
func (f *subFS) Snapshot() []vfs.SnapNode {
	if s, ok := f.inner.(vfs.Snapshotter); ok {
		return s.Snapshot()
	}
	return nil
}

func (f *subFS) enter() active {
	if f.tr == nil {
		return active{}
	}
	ln := f.ln
	if ln == nil {
		ln = f.tr.solo.Load()
	}
	return f.tr.begin(ln, false)
}

func (f *subFS) leave(a active, op string) {
	if a.id != 0 {
		f.tr.end(a, f.layer, op, false)
	}
}

func (f *subFS) Mkdir(p string) error {
	a := f.enter()
	defer f.leave(a, "Mkdir")
	return f.inner.Mkdir(p)
}

func (f *subFS) MkdirAll(p string) error {
	a := f.enter()
	defer f.leave(a, "MkdirAll")
	return f.inner.MkdirAll(p)
}

func (f *subFS) Create(p string) (vfs.File, error) {
	a := f.enter()
	defer f.leave(a, "Create")
	return f.inner.Create(p)
}

func (f *subFS) Open(p string) (vfs.File, error) {
	a := f.enter()
	defer f.leave(a, "Open")
	return f.inner.Open(p)
}

func (f *subFS) OpenFile(p string, flag int) (vfs.File, error) {
	a := f.enter()
	defer f.leave(a, "OpenFile")
	return f.inner.OpenFile(p, flag)
}

func (f *subFS) ReadFile(p string) ([]byte, error) {
	a := f.enter()
	defer f.leave(a, "ReadFile")
	return f.inner.ReadFile(p)
}

func (f *subFS) WriteFile(p string, data []byte) error {
	a := f.enter()
	defer f.leave(a, "WriteFile")
	return f.inner.WriteFile(p, data)
}

func (f *subFS) Symlink(target, link string) error {
	a := f.enter()
	defer f.leave(a, "Symlink")
	return f.inner.Symlink(target, link)
}

func (f *subFS) Readlink(p string) (string, error) {
	a := f.enter()
	defer f.leave(a, "Readlink")
	return f.inner.Readlink(p)
}

func (f *subFS) Remove(p string) error {
	a := f.enter()
	defer f.leave(a, "Remove")
	return f.inner.Remove(p)
}

func (f *subFS) RemoveAll(p string) error {
	a := f.enter()
	defer f.leave(a, "RemoveAll")
	return f.inner.RemoveAll(p)
}

func (f *subFS) Rename(o, n string) error {
	a := f.enter()
	defer f.leave(a, "Rename")
	return f.inner.Rename(o, n)
}

func (f *subFS) Stat(p string) (vfs.Info, error) {
	a := f.enter()
	defer f.leave(a, "Stat")
	return f.inner.Stat(p)
}

func (f *subFS) Lstat(p string) (vfs.Info, error) {
	a := f.enter()
	defer f.leave(a, "Lstat")
	return f.inner.Lstat(p)
}

func (f *subFS) ReadDir(p string) ([]vfs.DirEntry, error) {
	a := f.enter()
	defer f.leave(a, "ReadDir")
	return f.inner.ReadDir(p)
}

// opFS is the benchmark's view of a file system (a hac.FS, or a tenant
// view of the mux client): each call is one timed operation of the
// stream, in the class the call belongs to. The Andrew rounds run
// through it.
type opFS struct {
	inner vfs.FileSystem
	s     *stream
	layer string // span name prefix: "hac" or "rpc"
	// unclassed keeps the calls out of the latency classes, so a build
	// inside another workload does not change that workload's read and
	// write populations.
	unclassed bool
}

func (f *opFS) do(cls int, op string, fn func() error) error {
	if f.unclassed {
		cls = clsNone
	}
	return f.s.do(cls, f.layer, op, fn)
}

func (f *opFS) Mkdir(p string) error {
	return f.do(clsWrite, "Mkdir", func() error { return f.inner.Mkdir(p) })
}

func (f *opFS) MkdirAll(p string) error {
	return f.do(clsWrite, "MkdirAll", func() error { return f.inner.MkdirAll(p) })
}

func (f *opFS) Create(p string) (file vfs.File, err error) {
	err = f.do(clsWrite, "Create", func() error { file, err = f.inner.Create(p); return err })
	return file, err
}

func (f *opFS) Open(p string) (file vfs.File, err error) {
	err = f.do(clsRead, "Open", func() error { file, err = f.inner.Open(p); return err })
	return file, err
}

func (f *opFS) OpenFile(p string, flag int) (file vfs.File, err error) {
	cls := clsRead
	if flag&(vfs.OWrite|vfs.OCreate|vfs.OTrunc|vfs.OAppend) != 0 {
		cls = clsWrite
	}
	err = f.do(cls, "OpenFile", func() error { file, err = f.inner.OpenFile(p, flag); return err })
	return file, err
}

func (f *opFS) ReadFile(p string) (data []byte, err error) {
	err = f.do(clsRead, "ReadFile", func() error { data, err = f.inner.ReadFile(p); return err })
	return data, err
}

func (f *opFS) WriteFile(p string, data []byte) error {
	return f.do(clsWrite, "WriteFile", func() error { return f.inner.WriteFile(p, data) })
}

func (f *opFS) Symlink(target, link string) error {
	return f.do(clsWrite, "Symlink", func() error { return f.inner.Symlink(target, link) })
}

func (f *opFS) Readlink(p string) (s string, err error) {
	err = f.do(clsRead, "Readlink", func() error { s, err = f.inner.Readlink(p); return err })
	return s, err
}

func (f *opFS) Remove(p string) error {
	return f.do(clsWrite, "Remove", func() error { return f.inner.Remove(p) })
}

func (f *opFS) RemoveAll(p string) error {
	return f.do(clsWrite, "RemoveAll", func() error { return f.inner.RemoveAll(p) })
}

func (f *opFS) Rename(o, n string) error {
	return f.do(clsWrite, "Rename", func() error { return f.inner.Rename(o, n) })
}

func (f *opFS) Stat(p string) (info vfs.Info, err error) {
	err = f.do(clsRead, "Stat", func() error { info, err = f.inner.Stat(p); return err })
	return info, err
}

// Lstat is timed and counted but in no latency class. hac.FS passes it
// straight to the substrate, and in an Andrew round it is 44% of the
// reads at under a microsecond against 4 to 12 for the others: in the
// read class it would put the class's p50 on the fast edge of the
// other calls, where it moved by up to a third between runs minutes
// apart while write_p50_us moved a tenth. Its cost still shows in
// andrew_ms and vfs.self_us_per_op.
func (f *opFS) Lstat(p string) (info vfs.Info, err error) {
	err = f.do(clsNone, "Lstat", func() error { info, err = f.inner.Lstat(p); return err })
	return info, err
}

func (f *opFS) ReadDir(p string) (ents []vfs.DirEntry, err error) {
	err = f.do(clsRead, "ReadDir", func() error { ents, err = f.inner.ReadDir(p); return err })
	return ents, err
}

// volumes wraps the serving host's remotefs.Volumes seam. In a traced
// run it records the admission wait and each volume call (hac plus the
// serving layer's quota accounting) as spans on the tenant's lane.
type volumes struct {
	host  *serve.Host
	tr    *tracer
	lanes map[string]*lane

	mu   sync.Mutex
	vols map[string]*volFS

	wmu       sync.Mutex
	admitWait samples
}

var _ remotefs.Volumes = (*volumes)(nil)

func newVolumes(h *serve.Host, tr *tracer, lanes map[string]*lane) *volumes {
	return &volumes{host: h, tr: tr, lanes: lanes, vols: make(map[string]*volFS)}
}

// Admit forwards to the host and times the wait for a slot.
func (v *volumes) Admit(tenant, op string) (func(), error) {
	if v.tr == nil {
		return v.host.Admit(tenant, op)
	}
	a := v.tr.begin(v.lanes[tenant], false)
	t0 := time.Now()
	release, err := v.host.Admit(tenant, op)
	d := time.Since(t0)
	v.tr.end(a, "serve", "admit", false)
	if v.tr.on.Load() {
		v.wmu.Lock()
		v.admitWait = append(v.admitWait, int64(d))
		v.wmu.Unlock()
	}
	return release, err
}

// Volume returns the tenant's volume behind a timing wrapper.
func (v *volumes) Volume(tenant string) (vfs.FileSystem, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if w, ok := v.vols[tenant]; ok {
		return w, nil
	}
	inner, err := v.host.Volume(tenant)
	if err != nil {
		return nil, err
	}
	w := &volFS{inner: inner, tr: v.tr, ln: v.lanes[tenant]}
	v.vols[tenant] = w
	return w, nil
}

// execSamples returns every traced volume call's duration.
func (v *volumes) execSamples() (all samples) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, w := range v.vols {
		w.mu.Lock()
		all = append(all, w.exec...)
		w.mu.Unlock()
	}
	return all
}

// volFS is one tenant's served volume under the timing wrapper. It
// forwards the optional surfaces the remotefs server looks for, so the
// served program behaves as it does unwrapped.
type volFS struct {
	inner vfs.FileSystem
	tr    *tracer
	ln    *lane

	mu   sync.Mutex
	exec samples
}

var (
	_ remotefs.ContextSearcher = (*volFS)(nil)
	_ remotefs.Searcher        = (*volFS)(nil)
	_ remotefs.ContextSyncer   = (*volFS)(nil)
	_ remotefs.PathSyncer      = (*volFS)(nil)
	_ remotefs.BlobSource      = (*volFS)(nil)
)

func (f *volFS) call(op string, fn func() error) error {
	if f.tr == nil {
		return fn()
	}
	a := f.tr.begin(f.ln, true)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	f.tr.end(a, "serve", "exec."+op, true)
	if f.tr.on.Load() {
		f.mu.Lock()
		f.exec = append(f.exec, int64(d))
		f.mu.Unlock()
	}
	return err
}

func unsupported(op string) error {
	return &vfs.PathError{Op: op, Path: "/", Err: vfs.ErrUnsupported}
}

func (f *volFS) Mkdir(p string) error {
	return f.call("Mkdir", func() error { return f.inner.Mkdir(p) })
}

func (f *volFS) MkdirAll(p string) error {
	return f.call("MkdirAll", func() error { return f.inner.MkdirAll(p) })
}

func (f *volFS) Create(p string) (file vfs.File, err error) {
	err = f.call("Create", func() error { file, err = f.inner.Create(p); return err })
	return file, err
}

func (f *volFS) Open(p string) (file vfs.File, err error) {
	err = f.call("Open", func() error { file, err = f.inner.Open(p); return err })
	return file, err
}

func (f *volFS) OpenFile(p string, flag int) (file vfs.File, err error) {
	err = f.call("OpenFile", func() error { file, err = f.inner.OpenFile(p, flag); return err })
	return file, err
}

func (f *volFS) ReadFile(p string) (data []byte, err error) {
	err = f.call("ReadFile", func() error { data, err = f.inner.ReadFile(p); return err })
	return data, err
}

func (f *volFS) WriteFile(p string, data []byte) error {
	return f.call("WriteFile", func() error { return f.inner.WriteFile(p, data) })
}

func (f *volFS) Symlink(target, link string) error {
	return f.call("Symlink", func() error { return f.inner.Symlink(target, link) })
}

func (f *volFS) Readlink(p string) (s string, err error) {
	err = f.call("Readlink", func() error { s, err = f.inner.Readlink(p); return err })
	return s, err
}

func (f *volFS) Remove(p string) error {
	return f.call("Remove", func() error { return f.inner.Remove(p) })
}

func (f *volFS) RemoveAll(p string) error {
	return f.call("RemoveAll", func() error { return f.inner.RemoveAll(p) })
}

func (f *volFS) Rename(o, n string) error {
	return f.call("Rename", func() error { return f.inner.Rename(o, n) })
}

func (f *volFS) Stat(p string) (info vfs.Info, err error) {
	err = f.call("Stat", func() error { info, err = f.inner.Stat(p); return err })
	return info, err
}

func (f *volFS) Lstat(p string) (info vfs.Info, err error) {
	err = f.call("Lstat", func() error { info, err = f.inner.Lstat(p); return err })
	return info, err
}

func (f *volFS) ReadDir(p string) (ents []vfs.DirEntry, err error) {
	err = f.call("ReadDir", func() error { ents, err = f.inner.ReadDir(p); return err })
	return ents, err
}

func (f *volFS) SearchPage(query, scope string, after uint64, limit int) (paths []string, next uint64, err error) {
	s, ok := f.inner.(remotefs.Searcher)
	if !ok {
		return nil, 0, unsupported("search")
	}
	err = f.call("Search", func() error { paths, next, err = s.SearchPage(query, scope, after, limit); return err })
	return paths, next, err
}

func (f *volFS) SearchPageContext(ctx context.Context, query, scope string, after uint64, limit int) (paths []string, next uint64, err error) {
	s, ok := f.inner.(remotefs.ContextSearcher)
	if !ok {
		return f.SearchPage(query, scope, after, limit)
	}
	err = f.call("Search", func() error { paths, next, err = s.SearchPageContext(ctx, query, scope, after, limit); return err })
	return paths, next, err
}

func (f *volFS) SyncPath(p string) error {
	s, ok := f.inner.(remotefs.PathSyncer)
	if !ok {
		return unsupported("ssync")
	}
	return f.call("SyncPath", func() error { return s.SyncPath(p) })
}

func (f *volFS) SyncPathContext(ctx context.Context, p string) error {
	s, ok := f.inner.(remotefs.ContextSyncer)
	if !ok {
		return f.SyncPath(p)
	}
	return f.call("SyncPath", func() error { return s.SyncPathContext(ctx, p) })
}

func (f *volFS) CASManifest() (m *cas.Manifest, err error) {
	s, ok := f.inner.(remotefs.BlobSource)
	if !ok {
		return nil, unsupported("manifest")
	}
	err = f.call("CASManifest", func() error { m, err = s.CASManifest(); return err })
	return m, err
}

func (f *volFS) CASBlobs(hashes []cas.Hash) (blobs [][]byte, err error) {
	s, ok := f.inner.(remotefs.BlobSource)
	if !ok {
		return nil, unsupported("blobs")
	}
	err = f.call("CASBlobs", func() error { blobs, err = s.CASBlobs(hashes); return err })
	return blobs, err
}
