package remote

import (
	"context"
	"errors"
	"log"
	"sort"
	"sync"
	"time"

	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// Backend is what a Server answers from: IndexBackend for one index,
// a cluster coordinator for a sharded fleet (DESIGN.md §14).
type Backend interface {
	// SearchPageUnder serves one scope-restricted cursor page: matches
	// under scope ("" or "/" = everywhere) with DocID >= after, at
	// most limit of them (<= 0 = all), the next cursor (0 = done) and
	// the index epoch the page was pinned against, so a paging caller
	// can observe epoch drift between pages. The context carries the
	// caller's trace and deadline across the backend — a coordinator
	// fans it out to shards.
	SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) (paths []string, next, epoch uint64, err error)
	// Fetch reads one document.
	Fetch(path string) ([]byte, error)
	// Resync rebuilds the served index from its document tree.
	Resync(ctx context.Context) error
	// Status reports index state: the merge epoch, the mutation
	// version and the live document count.
	Status() (epoch, version uint64, docs int)
}

// IndexBackend serves searches from an index over a file system tree —
// a remote Glimpse, in the paper's terms.
type IndexBackend struct {
	ix   *index.Index
	fsys vfs.FileSystem
	root string

	resyncMu sync.Mutex // serializes Resync tree walks
}

// NewIndexBackend indexes the tree at root in fsys and serves it.
func NewIndexBackend(fsys vfs.FileSystem, root string) (*IndexBackend, error) {
	b := &IndexBackend{ix: index.New(), fsys: fsys, root: root}
	if _, _, _, err := b.ix.SyncTree(fsys, root); err != nil {
		return nil, err
	}
	return b, nil
}

// Index exposes the backend's index, e.g. for stats.
func (b *IndexBackend) Index() *index.Index { return b.ix }

// Resync re-walks the backend's document tree, folding any changes into
// the served index.
func (b *IndexBackend) Resync(_ context.Context) error {
	b.resyncMu.Lock()
	defer b.resyncMu.Unlock()
	_, _, _, err := b.ix.SyncTree(b.fsys, b.root)
	return err
}

// Status reports the served index's epoch, version and live doc count.
func (b *IndexBackend) Status() (epoch, version uint64, docs int) {
	snap := b.ix.Snapshot()
	return snap.Epoch(), snap.Version(), b.ix.Stats().Docs
}

// SearchPageUnder serves one scope-restricted cursor page plus the
// index epoch it was pinned against. It compiles q with the cost-based
// planner against a pinned snapshot, restricted to scope ("" or "/" =
// whole tree). The nil Refs map makes dir: references match nothing,
// the pre-planner behavior for remote namespaces.
func (b *IndexBackend) SearchPageUnder(_ context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	ast, err := query.Parse(q)
	if err != nil {
		if errors.Is(err, query.ErrEmpty) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, err
	}
	snap := b.ix.Snapshot()
	p, err := plan.Build(ast, plan.Scope{Prefix: scope}, &plan.SnapEnv{Snap: snap})
	if err != nil {
		return nil, 0, 0, err
	}
	bm, err := p.Exec()
	if err != nil {
		return nil, 0, 0, err
	}
	if after == 0 && limit <= 0 {
		// Unpaged: the full result, path-sorted.
		return snap.Paths(bm), 0, snap.Epoch(), nil
	}
	ids := bm.Slice()
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= after })
	ids = ids[i:]
	var next uint64
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		next = ids[len(ids)-1] + 1
	}
	return snap.PathsOf(ids), next, snap.Epoch(), nil
}

// Fetch reads one document.
func (b *IndexBackend) Fetch(path string) ([]byte, error) {
	return b.fsys.ReadFile(path)
}

// Server accepts protocol connections and answers them from a Backend.
type Server struct {
	*wire.ConnServer
	backend Backend
	logger  *log.Logger
	obsv    *obs.Observer
}

// NewServer returns a server for the given backend. logger may be nil
// to disable logging.
func NewServer(backend Backend, logger *log.Logger) *Server {
	s := &Server{backend: backend, logger: logger, obsv: obs.Default()}
	s.ConnServer = wire.NewConnServer(s.serveConn)
	return s
}

// SetObserver redirects the server's spans and slow-op records, e.g.
// to a private observer in tests.
func (s *Server) SetObserver(o *obs.Observer) {
	if o == nil {
		o = obs.Discard()
	}
	s.obsv = o
}

// startOp opens a server span for one search operation. A trace the
// client sent in the frame header is joined; untraced requests still
// get a root span, so the server's span ring sees every remote search. The companion finishOp closes the span and
// records the op in the slow log when it crossed the threshold.
func (s *Server) startOp(ctx context.Context, name, arg string) (*obs.Span, context.Context) {
	sp, ctx := s.obsv.Tracer().StartCtx(ctx, name)
	sp.Annotate("query", arg)
	return sp, ctx
}

func (s *Server) finishOp(sp *obs.Span, name, arg string, start time.Time, err error) {
	sp.FinishErr(err)
	dur := time.Since(start)
	if slow := s.obsv.Slow(); slow.Over(dur) {
		op := obs.SlowOp{Op: name, Arg: arg, Dur: dur}
		if sp != nil {
			op.Trace = sp.Context().Trace
		}
		if err != nil {
			op.Err = err.Error()
		}
		slow.Record(op)
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
