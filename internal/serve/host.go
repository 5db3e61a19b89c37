// Package serve hosts multiple isolated HAC volumes in one process —
// the multi-tenant serving layer between the wire protocols
// (internal/remote, internal/remotefs) and the volumes themselves
// (DESIGN.md §12). It enforces per-tenant quotas (bytes, documents,
// in-flight requests), admits requests through a round-robin fair
// scheduler so no tenant can starve the others, exports per-tenant
// metrics, and coordinates graceful shutdown: drain in-flight work,
// checkpoint every volume, refuse newcomers.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// tenantMetrics is one tenant's labeled series.
type tenantMetrics struct {
	requests     *obs.Counter   // serve_requests_total{tenant}
	rejectBP     *obs.Counter   // serve_rejects_total{tenant,reason=backpressure}
	rejectQuota  *obs.Counter   // serve_rejects_total{tenant,reason=quota}
	rejectDrain  *obs.Counter   // serve_rejects_total{tenant,reason=shutdown}
	inflight     *obs.Gauge     // serve_inflight{tenant}
	admitSeconds *obs.Histogram // serve_admit_wait_seconds{tenant}
}

// tenant is one hosted volume plus its quota state.
type tenant struct {
	name     string
	fs       *hac.FS
	qfs      *quotaFS // what Volume returns; enforces byte/doc quotas
	quota    Quota
	savePath string // checkpoint target; "" = not persisted

	u        usage
	inflight int64       // guarded by Host.mu
	slo      *sloTracker // guarded by Host.mu; nil = no objective
	met      tenantMetrics
}

// Host implements remotefs.Volumes over a set of named tenants.
type Host struct {
	obsv  *obs.Observer
	sched *scheduler

	mu       sync.Mutex
	tenants  map[string]*tenant
	def      string // tenant served to clients that name none
	draining bool
	idle     *sync.Cond // signaled when total in-flight drops to zero
	total    int64      // in-flight across all tenants
}

// NewHost returns an empty host. workers caps concurrently executing
// requests across all tenants (<= 0 picks a CPU-scaled default);
// o receives the per-tenant series (nil = obs.Default()).
func NewHost(workers int, o *obs.Observer) *Host {
	if o == nil {
		o = obs.Default()
	}
	h := &Host{obsv: o, sched: newScheduler(workers), tenants: make(map[string]*tenant)}
	h.idle = sync.NewCond(&h.mu)
	return h
}

// AddTenant registers a volume under name. savePath, when non-empty,
// is where Checkpoint atomically saves the volume (SaveVolumeFile).
// Current usage is recounted from the volume so quotas apply to
// pre-existing content.
func (h *Host) AddTenant(name string, fsys *hac.FS, q Quota, savePath string) error {
	if name == "" {
		return fmt.Errorf("serve: empty tenant name")
	}
	r := h.obsv.Registry()
	t := &tenant{
		name:     name,
		fs:       fsys,
		quota:    q,
		savePath: savePath,
		met: tenantMetrics{
			requests:     r.Counter("serve_requests_total", "tenant", name),
			rejectBP:     r.Counter("serve_rejects_total", "tenant", name, "reason", "backpressure"),
			rejectQuota:  r.Counter("serve_rejects_total", "tenant", name, "reason", "quota"),
			rejectDrain:  r.Counter("serve_rejects_total", "tenant", name, "reason", "shutdown"),
			inflight:     r.Gauge("serve_inflight", "tenant", name),
			admitSeconds: r.Histogram("serve_admit_wait_seconds", nil, "tenant", name),
		},
	}
	t.qfs = &quotaFS{inner: fsys, q: q, u: &t.u, met: &t.met}
	if cfs := casSubstrateOf(fsys); cfs != nil {
		// Content-addressed volume: quotas charge measured unique bytes
		// (identical content across tenants of a shared store is paid
		// for once), and the store's cas_* gauges join the scrape.
		t.qfs.store = cfs.Store()
		cfs.Store().PublishMetrics(r)
		recountCAS(cfs, &t.u)
	} else if err := recount(fsys, &t.u); err != nil {
		return fmt.Errorf("serve: recount %s: %w", name, err)
	}
	r.GaugeFunc("serve_used_bytes", func() float64 {
		t.u.mu.Lock()
		defer t.u.mu.Unlock()
		return float64(t.u.bytes)
	}, "tenant", name)
	r.GaugeFunc("serve_used_docs", func() float64 {
		t.u.mu.Lock()
		defer t.u.mu.Unlock()
		return float64(t.u.docs)
	}, "tenant", name)

	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.tenants[name]; dup {
		return fmt.Errorf("serve: duplicate tenant %q", name)
	}
	h.tenants[name] = t
	return nil
}

// casSubstrateOf unwraps a volume's layering (a HAC layer, fault
// injection) down to a content-addressed substrate, or nil.
func casSubstrateOf(fsys vfs.FileSystem) *cas.FS {
	for {
		if c, ok := fsys.(*cas.FS); ok {
			return c
		}
		u, ok := fsys.(interface{ Under() vfs.FileSystem })
		if !ok {
			return nil
		}
		fsys = u.Under()
	}
}

// recountCAS resets accounted usage from the substrate manifest:
// every file is a doc, but bytes count each distinct content hash
// once — the tenant's self-deduplicated footprint. Cross-tenant
// sharing in a common store is credited to writes as they happen, not
// re-attributed at load.
func recountCAS(cfs *cas.FS, u *usage) {
	m := cfs.Manifest()
	seen := make(map[cas.Hash]bool, len(m.Entries))
	var bytes, docs int64
	for _, e := range m.Entries {
		if e.Type != vfs.TypeFile {
			continue
		}
		docs++
		if !seen[e.Hash] {
			seen[e.Hash] = true
			bytes += e.Size
		}
	}
	u.mu.Lock()
	u.bytes, u.docs = bytes, docs
	u.mu.Unlock()
}

// recount walks the volume and resets accounted usage to what is
// actually there.
func recount(fsys vfs.FileSystem, u *usage) error {
	var bytes, docs int64
	err := vfs.Walk(fsys, "/", func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeFile {
			bytes += info.Size
			docs++
		}
		return nil
	})
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.bytes, u.docs = bytes, docs
	u.mu.Unlock()
	return nil
}

// SetDefault routes requests that name no tenant (the empty tenant,
// as a client that never calls Tenant sends) to the named one.
func (h *Host) SetDefault(name string) {
	h.mu.Lock()
	h.def = name
	h.mu.Unlock()
}

// resolveLocked maps the empty tenant to the default, if one is set.
func (h *Host) resolveLocked(name string) string {
	if name == "" {
		return h.def
	}
	return name
}

// Tenants returns the registered tenant names, sorted.
func (h *Host) Tenants() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.tenants))
	for name := range h.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Usage returns a tenant's accounted footprint.
func (h *Host) Usage(name string) (bytes, docs int64, err error) {
	h.mu.Lock()
	t, ok := h.tenants[name]
	h.mu.Unlock()
	if !ok {
		return 0, 0, &vfs.PathError{Op: "usage", Path: "/" + name, Err: vfs.ErrNotExist}
	}
	t.u.mu.Lock()
	defer t.u.mu.Unlock()
	return t.u.bytes, t.u.docs, nil
}

// Volume implements remotefs.Volumes: the quota-enforcing view of the
// named tenant's file system.
func (h *Host) Volume(name string) (vfs.FileSystem, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.tenants[h.resolveLocked(name)]
	if !ok {
		return nil, &vfs.PathError{Op: "volume", Path: "/" + name, Err: vfs.ErrNotExist}
	}
	return t.qfs, nil
}

// Admit implements remotefs.Volumes: admission control for one
// request. Unknown tenants and a draining host reject immediately; a
// tenant over its in-flight limit gets typed backpressure (retry
// later, do not queue); otherwise the request waits for a fair
// scheduler slot.
func (h *Host) Admit(name, op string) (func(), error) {
	h.mu.Lock()
	name = h.resolveLocked(name)
	t, ok := h.tenants[name]
	if !ok {
		h.mu.Unlock()
		return nil, &vfs.PathError{Op: "admit", Path: "/" + name, Err: vfs.ErrNotExist}
	}
	if h.draining {
		h.mu.Unlock()
		t.met.rejectDrain.Inc()
		return nil, &vfs.PathError{Op: op, Path: "/" + name, Err: vfs.ErrShuttingDown}
	}
	if t.quota.MaxInflight > 0 && t.inflight >= t.quota.MaxInflight {
		h.mu.Unlock()
		t.met.rejectBP.Inc()
		return nil, &vfs.PathError{Op: op, Path: "/" + name, Err: vfs.ErrBackpressure}
	}
	t.inflight++
	h.total++
	slo := t.slo
	h.mu.Unlock()
	t.met.inflight.Add(1)

	start := time.Now()
	h.sched.acquire(name)
	t.met.admitSeconds.ObserveSince(start)
	t.met.requests.Inc()

	// SLO latency runs admission to release: scheduler wait is already
	// behind us (it has its own histogram), execution time is what the
	// release closure sees.
	opStart := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			slo.record(time.Since(opStart))
			h.sched.release()
			t.met.inflight.Add(-1)
			h.mu.Lock()
			t.inflight--
			h.total--
			if h.total == 0 {
				h.idle.Broadcast()
			}
			h.mu.Unlock()
		})
	}, nil
}

// Drain flips the host into shutdown mode — every new Admit fails with
// vfs.ErrShuttingDown — and waits for in-flight requests to finish, or
// for ctx to expire.
func (h *Host) Drain(ctx context.Context) error {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()

	done := make(chan struct{})
	go func() {
		h.mu.Lock()
		for h.total != 0 {
			h.idle.Wait()
		}
		h.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter goroutine so it does not leak once the last
		// request eventually finishes.
		h.mu.Lock()
		h.idle.Broadcast()
		h.mu.Unlock()
		return ctx.Err()
	}
}

// Checkpoint atomically saves every tenant volume that has a save
// path, returning the first error (but attempting all).
func (h *Host) Checkpoint() error {
	h.mu.Lock()
	tenants := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		tenants = append(tenants, t)
	}
	h.mu.Unlock()
	var firstErr error
	for _, t := range tenants {
		if t.savePath == "" {
			continue
		}
		if err := t.fs.SaveVolumeFile(t.savePath); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: checkpoint %s: %w", t.name, err)
		}
	}
	return firstErr
}
