package hac

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/index"
	"hacfs/internal/obs"
)

// Option configures a volume at construction (NewWith) or one
// evaluation pass (Sync, SyncAll, Reindex). Options passed to a
// constructor become the volume's defaults; options passed to a pass
// override the defaults for that pass only.
type Option func(*config)

// config accumulates both volume-construction settings and per-pass
// evaluation overrides.
type config struct {
	vol  Options
	eval evalConfig
	set  struct {
		parallelism bool
		verify      bool
	}
}

// evalConfig is the resolved configuration of one evaluation pass.
type evalConfig struct {
	parallelism int
	verify      bool
	ctx         context.Context
	// span is the pass's root span (hac.Sync / hac.SyncAll /
	// hac.Reindex); per-directory evaluation spans are its children.
	// nil — as in mutation-triggered consistency passes — disables
	// tracing for the pass.
	span *obs.Span
}

// WithParallelism sets the worker count for Reindex tokenization and
// for within-level query re-evaluation. 0 selects runtime.GOMAXPROCS(0);
// 1 disables concurrency.
func WithParallelism(n int) Option {
	return func(c *config) {
		c.vol.Parallelism = n
		c.eval.parallelism = n
		c.set.parallelism = true
	}
}

// WithVerify toggles the Glimpse-style second level: every query match
// is confirmed by scanning the file's content (see
// Options.VerifyMatches).
func WithVerify(v bool) Option {
	return func(c *config) {
		c.vol.VerifyMatches = v
		c.eval.verify = v
		c.set.verify = true
	}
}

// WithContext attaches a context to an evaluation pass. Remote
// namespace calls issued by the pass are bounded by it (in addition to
// the volume's default remote timeout). It has no effect at
// construction time.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.eval.ctx = ctx }
}

// WithObserver directs the volume's metrics and spans to o
// (construction only). nil selects the process-wide obs.Default();
// obs.Discard() disables recording.
func WithObserver(o *obs.Observer) Option {
	return func(c *config) { c.vol.Observer = o }
}

// WithAttrCacheSize bounds the attribute cache (construction only).
func WithAttrCacheSize(n int) Option {
	return func(c *config) { c.vol.AttrCacheSize = n }
}

// WithRemoteTimeout bounds each remote namespace RPC issued during
// evaluation (construction only; default 10s).
func WithRemoteTimeout(d time.Duration) Option {
	return func(c *config) { c.vol.RemoteTimeout = d }
}

// WithTransducer registers an attribute transducer for a file
// extension at construction ("" = every file).
func WithTransducer(ext string, t index.Transducer) Option {
	return func(c *config) {
		if c.vol.Transducers == nil {
			c.vol.Transducers = make(map[string][]index.Transducer)
		}
		c.vol.Transducers[ext] = append(c.vol.Transducers[ext], t)
	}
}

// resolveParallelism maps the configured worker count to an effective
// one.
func resolveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// evalCfg resolves one pass's configuration from the volume defaults
// plus per-call options.
func (fs *FS) evalCfg(opts []Option) evalConfig {
	var c config
	c.eval = evalConfig{
		parallelism: fs.par,
		verify:      fs.verify,
		ctx:         context.Background(),
	}
	for _, o := range opts {
		o(&c)
	}
	if !c.set.parallelism {
		c.eval.parallelism = fs.par
	}
	if !c.set.verify {
		c.eval.verify = fs.verify
	}
	if c.eval.ctx == nil {
		c.eval.ctx = context.Background()
	}
	c.eval.parallelism = resolveParallelism(c.eval.parallelism)
	return c.eval
}

// ---------------------------------------------------------------------
// Level-parallel scope-consistency engine.
//
// The dependency DAG already encodes which directories may be
// re-evaluated independently: within one antichain ("level") no
// directory's query can observe another's links. The engine therefore
// walks the levels in topological order and, inside each level,
// evaluates all semantic directories concurrently under the volume's
// read lock. Evaluation is pure — it only reads the index, the name
// map and the scopes committed by earlier levels — and stages each
// directory's new transient target set. Link mutations then commit
// under the write lock, in ascending path order, so symlink names and
// substrate mutation order are deterministic regardless of worker
// scheduling.
//
// Lock hierarchy (see DESIGN.md "Evaluation engine"): fs.mu (RW) >
// index.mu > namemap.mu > substrate locks. Evaluation holds fs.mu.R,
// commit holds fs.mu.W; worker goroutines themselves take no locks —
// they are covered by the coordinator's read lock.
//
// Because the read lock is released between evaluation and commit,
// a user mutation can slip in. Every mutating operation bumps fs.gen
// under the write lock; if the generation moved, the staged results
// are discarded and the level is re-evaluated serially under the
// write lock (the pre-parallel behavior), which is always safe.
// ---------------------------------------------------------------------

// stagedResult is one directory's computed transient target set,
// held until its level commits.
type stagedResult struct {
	uid     uint64
	path    string
	targets map[string]bool
	err     error
}

// syncLevels restores scope consistency for the given dependency
// levels, in order.
func (fs *FS) syncLevels(levels [][]uint64, cfg evalConfig) error {
	for _, level := range levels {
		if err := fs.syncOneLevel(level, cfg); err != nil {
			return err
		}
	}
	return nil
}

// syncOneLevel re-evaluates every semantic directory of one antichain.
func (fs *FS) syncOneLevel(level []uint64, cfg evalConfig) error {
	if cfg.parallelism <= 1 || len(level) <= 1 {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		for _, uid := range level {
			ds, ok := fs.dirs[uid]
			if !ok || !ds.semantic {
				continue
			}
			if err := fs.reevalCfgLocked(ds, cfg); err != nil {
				return err
			}
		}
		fs.gen++
		return nil
	}

	// Evaluation phase: stage every directory's new target set under
	// the read lock. Workers take no locks themselves — the
	// coordinator's RLock keeps all writers out.
	fs.mu.RLock()
	startGen := fs.gen
	staged := make([]stagedResult, 0, len(level))
	for _, uid := range level {
		ds, ok := fs.dirs[uid]
		if !ok || !ds.semantic {
			continue
		}
		p, ok := fs.pathOfLocked(uid)
		if !ok {
			continue
		}
		staged = append(staged, stagedResult{uid: uid, path: p})
	}
	if len(staged) == 0 {
		fs.mu.RUnlock()
		return nil
	}
	workers := cfg.parallelism
	if workers > len(staged) {
		workers = len(staged)
	}
	fs.met.queueDepth.Set(int64(len(staged)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs.met.workersBusy.Add(1)
			defer fs.met.workersBusy.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(staged) {
					return
				}
				ds := fs.dirs[staged[i].uid]
				staged[i].targets, staged[i].err = fs.computeTargetsLocked(ds, cfg)
				fs.met.queueDepth.Add(-1)
			}
		}()
	}
	wg.Wait()
	fs.met.queueDepth.Set(0)
	fs.mu.RUnlock()

	// Commit phase: apply in ascending path order under the write
	// lock, so link materialization is deterministic.
	sort.Slice(staged, func(i, j int) bool { return staged[i].path < staged[j].path })
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.gen != startGen {
		// A mutation interleaved between evaluation and commit; the
		// staged scopes may be stale. Fall back to serial
		// re-evaluation under the write lock.
		fs.met.genFallbacks.Add(1)
		for _, s := range staged {
			ds, ok := fs.dirs[s.uid]
			if !ok || !ds.semantic {
				continue
			}
			if err := fs.reevalCfgLocked(ds, cfg); err != nil {
				return err
			}
		}
		fs.gen++
		return nil
	}
	for _, s := range staged {
		if s.err != nil {
			return s.err
		}
		ds, ok := fs.dirs[s.uid]
		if !ok || !ds.semantic {
			continue
		}
		if err := fs.commitTargetsLocked(ds, s.targets); err != nil {
			return err
		}
	}
	fs.gen++
	return nil
}
