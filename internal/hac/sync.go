package hac

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/query"
	"hacfs/internal/vfs"
)

// pathErr wraps err with the operation and path that failed, so callers
// can recover the path via errors.As(&hacfs.PathError{}) while
// errors.Is against the sentinels keeps working through Unwrap.
func pathErr(op, path string, err error) error {
	return &vfs.PathError{Op: op, Path: path, Err: err}
}

// Sync restores scope consistency (§2.3) for the directory at path and
// everything that directly or indirectly depends on it — the paper's
// ssync command. Directories are re-evaluated level by level in
// topological order of the dependency DAG (§2.5); within one level
// (an antichain of the DAG) directories are independent and are
// evaluated concurrently by the engine in engine.go. Options override
// the volume defaults for this pass (WithParallelism, WithVerify,
// WithContext).
func (fs *FS) Sync(path string, opts ...Option) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return pathErr("ssync", path, err)
	}
	cfg := fs.evalCfg(opts)
	start := time.Now()
	cfg.span, cfg.ctx = fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.Sync")
	cfg.span.Annotate("path", clean)
	fs.mu.Lock()
	info, err := fs.under.Stat(clean)
	if err != nil {
		fs.mu.Unlock()
		cfg.span.FinishErr(err)
		return err
	}
	if !info.IsDir() {
		fs.mu.Unlock()
		err = pathErr("ssync", path, vfs.ErrNotDir)
		cfg.span.FinishErr(err)
		return err
	}
	ds := fs.registerDirLocked(clean)
	uid := ds.uid
	fs.mu.Unlock()
	err = fs.syncLevels(fs.graph.AffectedLevels(uid, true), cfg)
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// SyncPath is Sync with volume-default options, under the fixed
// signature that the serving layer (remotefs.PathSyncer) dispatches
// ssync requests through.
func (fs *FS) SyncPath(path string) error { return fs.Sync(path) }

// SyncPathContext is SyncPath with the request context threaded
// through (remotefs.ContextSyncer), so a trace propagated from a
// remote client links into the pass's spans.
func (fs *FS) SyncPathContext(ctx context.Context, path string) error {
	return fs.Sync(path, WithContext(ctx))
}

// SyncAll restores scope consistency for the whole volume, level by
// level (see Sync).
func (fs *FS) SyncAll(opts ...Option) error {
	cfg := fs.evalCfg(opts)
	start := time.Now()
	cfg.span, cfg.ctx = fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.SyncAll")
	err := fs.syncLevels(fs.graph.TopoLevels(), cfg)
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// syncFromLocked re-evaluates uid itself (if semantic) and then every
// transitive dependent, in topological order. Caller holds fs.mu.
func (fs *FS) syncFromLocked(uid uint64) error {
	if ds, ok := fs.dirs[uid]; ok && ds.semantic {
		if err := fs.reevalLocked(ds); err != nil {
			return err
		}
	}
	return fs.syncDependentsLocked(uid)
}

// syncDependentsLocked re-evaluates every transitive dependent of uid,
// but not uid itself. Used when uid's link set was changed directly by
// the user: their edit is authoritative, only downstream scopes must
// adapt. Caller holds fs.mu.
func (fs *FS) syncDependentsLocked(uid uint64) error {
	for _, dep := range fs.graph.AffectedBy(uid) {
		ds, ok := fs.dirs[dep]
		if !ok || !ds.semantic {
			continue
		}
		if err := fs.reevalLocked(ds); err != nil {
			return err
		}
	}
	return nil
}

// reevalLocked recomputes the transient links of ds with the volume's
// default evaluation settings. Caller holds fs.mu for writing.
func (fs *FS) reevalLocked(ds *dirState) error {
	return fs.reevalCfgLocked(ds, fs.defaultEvalCfg())
}

// defaultEvalCfg is the volume's standing evaluation configuration,
// used by the serial consistency paths triggered from mutations.
func (fs *FS) defaultEvalCfg() evalConfig {
	return evalConfig{parallelism: 1, verify: fs.verify, ctx: context.Background()}
}

// reevalCfgLocked computes and immediately commits ds's new transient
// set — the serial form of the engine's evaluate/commit pipeline.
// Caller holds fs.mu for writing.
func (fs *FS) reevalCfgLocked(ds *dirState, cfg evalConfig) error {
	newTargets, err := fs.computeTargetsLocked(ds, cfg)
	if err != nil {
		return err
	}
	return fs.commitTargetsLocked(ds, newTargets)
}

// computeTargetsLocked evaluates ds's query and returns its new
// transient target set — the read-only half of the paper's
// scope-consistency algorithm:
//
//  1. re-evaluate the query over the scope provided by the parent;
//  2. discard results that are permanent or prohibited in ds;
//  3. the remainder is the new transient set (permanent and prohibited
//     sets are never touched).
//
// It mutates nothing, so the engine may run many of these concurrently
// under the read lock. Caller holds fs.mu (read suffices).
func (fs *FS) computeTargetsLocked(ds *dirState, cfg evalConfig) (map[string]bool, error) {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return nil, fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	parentPath := vfs.Dir(dirPath)
	fs.met.semdirEvals.Add(1)
	sp := cfg.span.Child("hac.eval")
	sp.Annotate("dir", dirPath)

	newTargets := make(map[string]bool)
	if ds.ast != nil {
		// Pin one index snapshot for the whole evaluation: every term
		// lookup, the scope restriction and the final path resolution see
		// the same segment set even if a background merge commits
		// mid-query.
		snap := fs.ix.Snapshot()
		evalStart := time.Now()
		local, err := query.Eval(ds.ast, &evalEnv{fs: fs, snap: snap})
		fs.met.queryEvalSeconds.ObserveSince(evalStart)
		fs.met.phaseEval.ObserveSince(evalStart)
		if err != nil {
			err = pathErr("ssync", dirPath, fmt.Errorf("evaluating query: %w", err))
			sp.FinishErr(err)
			return nil, err
		}
		// Scope restriction (§2.3/§2.5). A query without directory
		// references gets the strict hierarchical behavior: an implicit
		// "AND dir:<parent>". A query with explicit dir: references has
		// chosen DAG-based scoping, and the paper leaves the scope
		// entirely to the query ("users can choose strict hierarchical
		// dependencies, DAG based dependencies, or both").
		scopeStart := time.Now()
		if len(query.Refs(ds.ast)) == 0 {
			local.And(fs.providedScopeLocalLocked(snap, parentPath))
		}
		matched := snap.Paths(local)
		if cfg.verify {
			// Glimpse-style second level: confirm each candidate by
			// scanning its content for the query terms.
			verifyMatches(fs.under, matched, query.Terms(ds.ast))
		}
		fs.met.phaseScope.ObserveSince(scopeStart)
		for _, p := range matched {
			newTargets[p] = true
		}
		remoteStart := time.Now()
		remote, err := fs.evalRemoteLocked(cfg.ctx, ds, parentPath)
		fs.met.phaseRemote.ObserveSince(remoteStart)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		for t := range remote {
			newTargets[t] = true
		}
	}

	// Never add what the user prohibited; never duplicate what the user
	// made permanent.
	for t := range ds.prohibited {
		delete(newTargets, t)
	}
	for t, c := range ds.class {
		if c == Permanent {
			delete(newTargets, t)
		}
	}
	sp.Annotate("targets", strconv.Itoa(len(newTargets)))
	sp.Finish()
	return newTargets, nil
}

// commitTargetsLocked diffs newTargets against ds's current transient
// set, mutating the underlying directory to match. Targets are
// processed in sorted order so the substrate mutations — and therefore
// collision-suffixed link names — are deterministic. Caller holds
// fs.mu for writing.
func (fs *FS) commitTargetsLocked(ds *dirState, newTargets map[string]bool) error {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	commitStart := time.Now()
	var drop []string
	for t, c := range ds.class {
		if c == Transient && !newTargets[t] {
			drop = append(drop, t)
		}
	}
	sort.Strings(drop)
	for _, t := range drop {
		if name, ok := ds.linkName[t]; ok {
			if err := fs.under.Remove(vfs.Join(dirPath, name)); err != nil && !isNotExist(err) {
				return err
			}
		}
		delete(ds.class, t)
		delete(ds.linkName, t)
	}
	var add []string
	for t := range newTargets {
		if _, ok := ds.class[t]; !ok {
			add = append(add, t)
		}
	}
	sort.Strings(add)
	for _, t := range add {
		name, err := fs.materializeLinkLocked(ds, dirPath, t)
		if err != nil {
			return err
		}
		ds.class[t] = Transient
		ds.linkName[t] = name
	}
	if len(drop)+len(add) > 0 {
		fs.bumpScopeEpochLocked(ds.uid)
	}
	fs.met.linksDropped.Add(int64(len(drop)))
	fs.met.linksAdded.Add(int64(len(add)))
	fs.met.phaseCommit.ObserveSince(commitStart)
	repairStart := time.Now()
	// Crash repair (DESIGN.md §8): a fault between an unlink and a
	// relink — a torn rename rewrite, an interrupted commit — can leave
	// a classified target with its physical symlink missing, or (when
	// the fault hit a rename's link-rewrite pass) still pointing at the
	// pre-rename path. New transient targets were just materialized
	// above, but a previously-classified target is skipped by the add
	// loop and a permanent link is never re-derived at all, so both
	// would stay broken forever. The classification is authoritative:
	// re-create missing symlinks and re-point wrong ones, making every
	// consistency pass also a repair pass.
	var repair []string
	for t := range ds.class {
		name, ok := ds.linkName[t]
		if !ok || name == "" {
			continue
		}
		lp := vfs.Join(dirPath, name)
		info, err := fs.under.Lstat(lp)
		switch {
		case isNotExist(err):
			repair = append(repair, t)
		case err != nil:
			return err
		case info.Type == vfs.TypeSymlink:
			if got, rerr := fs.under.Readlink(lp); rerr == nil && got != t {
				if err := fs.under.Remove(lp); err != nil && !isNotExist(err) {
					return err
				}
				repair = append(repair, t)
			}
		}
	}
	sort.Strings(repair)
	for _, t := range repair {
		lp := vfs.Join(dirPath, ds.linkName[t])
		if err := fs.under.Symlink(t, lp); err != nil && !errors.Is(err, vfs.ErrExist) {
			return err
		}
	}
	if len(drop)+len(add)+len(repair) > 0 {
		// A link chain from another directory may pass through these
		// symlinks; its memoized scope is keyed on gen.
		fs.gen++
	}
	fs.met.linksRepaired.Add(int64(len(repair)))
	fs.met.phaseRepair.ObserveSince(repairStart)
	return nil
}

func isNotExist(err error) bool { return errors.Is(err, vfs.ErrNotExist) }

// verifyMatches reads each candidate file and counts occurrences of the
// query terms, mimicking the grep pass of a two-level index like
// Glimpse. The count is returned so the scan has an observable result.
func verifyMatches(fsys vfs.FileSystem, paths []string, terms []string) int {
	total := 0
	for _, p := range paths {
		data, err := fsys.ReadFile(p)
		if err != nil {
			continue
		}
		content := strings.ToLower(string(data))
		for _, t := range terms {
			total += strings.Count(content, t)
		}
	}
	return total
}

// providedScopeLocalLocked returns the local-document scope a directory
// provides (§2.3):
//
//   - a semantic directory provides its current link targets plus the
//     regular files physically inside it;
//   - a syntactic directory (including the root) provides every indexed
//     file in its subtree.
//
// The scope is resolved against snap, so it composes with query results
// evaluated against the same snapshot. A semantic directory's scope is
// memoized on its dirState (see scopeKey) and the returned set is then
// shared: callers must treat it as read-only. Caller holds fs.mu.
func (fs *FS) providedScopeLocalLocked(snap *index.Snapshot, dirPath string) *bitset.Segmented {
	ds, ok := fs.stateAtLocked(dirPath)
	if !ok || !ds.semantic {
		return snap.DocsUnder(dirPath)
	}
	key := fs.scopeKeyLocked(ds, snap)
	if m := ds.scope.Load(); m != nil && m.key == key {
		fs.met.scopeMemoHits.Add(1)
		return m.set
	}
	fs.met.scopeMemoMisses.Add(1)
	set := fs.semanticScopeLocked(snap, ds, dirPath)
	// Snapshot ID lookups read the index's live path table, so a set
	// computed while the index moved past the pin is not a function of
	// the key; use it, but do not keep it.
	if fs.ix.Version() == key.version {
		ds.scope.Store(&scopeMemo{key: key, set: set})
	}
	return set
}

// freshScopeLocked is providedScopeLocalLocked without the memo. Caller
// holds fs.mu.
func (fs *FS) freshScopeLocked(snap *index.Snapshot, dirPath string) *bitset.Segmented {
	if ds, ok := fs.stateAtLocked(dirPath); ok && ds.semantic {
		return fs.semanticScopeLocked(snap, ds, dirPath)
	}
	return snap.DocsUnder(dirPath)
}

// scopeKey is what a semantic directory's provided scope depends on:
//
//   - scopeEpoch: its link set (bumped on every link change, and when a
//     regular file enters or leaves the directory);
//   - gen: every other volume mutation, including physical symlinks in
//     other directories that a link chain may pass through;
//   - epoch and version: the snapshot's ID space and liveness.
type scopeKey struct {
	scopeEpoch, gen, epoch, version uint64
}

// scopeMemo is one memoized provided scope and the key it is valid for.
type scopeMemo struct {
	key scopeKey
	set *bitset.Segmented
}

// scopeKeyLocked returns the key ds's scope has when resolved against
// snap. Caller holds fs.mu.
func (fs *FS) scopeKeyLocked(ds *dirState, snap *index.Snapshot) scopeKey {
	return scopeKey{
		scopeEpoch: fs.scopeEpoch[ds.uid],
		gen:        fs.gen,
		epoch:      snap.Epoch(),
		version:    snap.Version(),
	}
}

// semanticScopeLocked computes a semantic directory's provided scope
// from scratch, in one pass and one ID lookup per link and per regular
// file. Caller holds fs.mu.
func (fs *FS) semanticScopeLocked(snap *index.Snapshot, ds *dirState, dirPath string) *bitset.Segmented {
	out := bitset.NewSegmented()
	for t := range ds.class {
		if IsRemoteTarget(t) {
			continue
		}
		if id, ok := fs.resolveIndexedLocked(snap, t); ok {
			out.Add(id)
		}
	}
	if entries, err := fs.under.ReadDir(dirPath); err == nil {
		for _, e := range entries {
			if e.Type != vfs.TypeFile {
				continue
			}
			if id, ok := snap.IDOf(vfs.Join(dirPath, e.Name)); ok {
				out.Add(id)
			}
		}
	}
	return out
}

// resolveIndexedLocked maps a link target to the ID of an indexed
// document in snap, following symlink chains (a link in one semantic
// directory may point at a link in another). Caller holds fs.mu.
func (fs *FS) resolveIndexedLocked(snap *index.Snapshot, target string) (index.DocID, bool) {
	p := target
	for depth := 0; depth < 10; depth++ {
		if id, ok := snap.IDOf(p); ok {
			return id, true
		}
		info, err := fs.under.Lstat(p)
		if err != nil || info.Type != vfs.TypeSymlink {
			return 0, false
		}
		next, err := fs.under.Readlink(p)
		if err != nil {
			return 0, false
		}
		if !vfs.IsAbs(next) {
			next = vfs.Join(vfs.Dir(p), next)
		}
		p = next
	}
	return 0, false
}

// evalEnv adapts the CBA engine and directory scopes to the query
// evaluator — the paper's API between HAC and the CBA mechanism. All
// index reads go through one pinned snapshot, so the bitmaps an
// evaluation intersects share a single consistent ID space.
type evalEnv struct {
	fs   *FS
	snap *index.Snapshot
}

func (e *evalEnv) Term(w string) (*bitset.Segmented, error) { return e.snap.Lookup(w), nil }

func (e *evalEnv) Prefix(p string) (*bitset.Segmented, error) { return e.snap.LookupPrefix(p), nil }

func (e *evalEnv) Fuzzy(w string) (*bitset.Segmented, error) { return e.snap.LookupFuzzy(w), nil }

func (e *evalEnv) Universe() (*bitset.Segmented, error) { return e.snap.AllDocs(), nil }

// DirRef returns the scope provided by the referenced directory (§2.5:
// "the CBA mechanism can use HAC's API to obtain the existing
// query-result stored in that directory").
func (e *evalEnv) DirRef(ref *query.DirRef) (*bitset.Segmented, error) {
	p, ok := e.fs.pathOfLocked(ref.UID)
	if !ok {
		return nil, &vfs.PathError{Op: "eval", Path: fmt.Sprintf("dir:#%d", ref.UID), Err: ErrDanglingRef}
	}
	// query.Eval combines results in place; the scope may be shared.
	return e.fs.providedScopeLocalLocked(e.snap, p).Clone(), nil
}

// IndexReport summarizes a Reindex run.
type IndexReport struct {
	Added   int
	Updated int
	Removed int
}

// Reindex runs the paper's §2.4 data-consistency pass over the subtree
// at root: every directory is registered in the global map (so it can
// serve as a scope or query reference), the CBA mechanism incrementally
// re-indexes the files, and every semantic directory is re-evaluated
// ("at reindexing time, all scope and data inconsistencies are
// settled"). The file walk goes through the HAC layer itself, as in
// the paper's Table 3 setup.
//
// Files are read and tokenized by a pool of cfg.parallelism workers
// (WithParallelism, default Options.Parallelism, 0 = GOMAXPROCS); index
// insertion stays single-writer in walk order, so document IDs — and
// therefore all downstream bitmaps — are identical to a serial run.
func (fs *FS) Reindex(root string, opts ...Option) (IndexReport, error) {
	cfg := fs.evalCfg(opts)
	reindexStart := time.Now()
	sp, ctx := fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.Reindex")
	sp.Annotate("root", root)
	defer func() {
		fs.met.reindexTotal.Add(1)
		fs.met.reindexSeconds.ObserveSince(reindexStart)
	}()
	var rep IndexReport
	// Register directories first — the paper's per-directory structures
	// and global-map entries are part of HAC's indexing cost.
	err := vfs.Walk(fs, root, func(p string, info vfs.Info) error {
		if info.IsDir() {
			fs.mu.Lock()
			fs.registerDirLocked(p)
			fs.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		sp.FinishErr(err)
		return rep, err
	}
	added, updated, removed, err := fs.ix.SyncTreeParallel(fs, root, cfg.parallelism)
	rep = IndexReport{Added: added, Updated: updated, Removed: removed}
	// The index changed outside fs.mu; bump the generation so any
	// evaluation pass that overlapped the re-index falls back rather
	// than committing results staged against the old index.
	fs.mu.Lock()
	fs.gen++
	fs.mu.Unlock()
	if err != nil {
		sp.FinishErr(err)
		return rep, err
	}
	sp.Annotate("added", strconv.Itoa(added))
	sp.Annotate("updated", strconv.Itoa(updated))
	sp.Annotate("removed", strconv.Itoa(removed))
	// Thread the reindex span's context into the consistency pass, so
	// its hac.SyncAll root nests in the same trace.
	err = fs.SyncAll(append(opts[:len(opts):len(opts)], WithContext(ctx))...)
	sp.FinishErr(err)
	return rep, err
}

// Stats reports HAC-layer health counters.
type Stats struct {
	Directories  int // directories with HAC bookkeeping
	SemanticDirs int
	GraphNodes   int
	AttrHits     int64
	AttrMisses   int64
	OpenHandles  int64
}

// Stats returns a snapshot of the layer's counters.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	s := Stats{
		Directories: len(fs.dirs),
		GraphNodes:  fs.graph.Len(),
		OpenHandles: fs.fds.open64.Load(),
	}
	for _, ds := range fs.dirs {
		if ds.semantic {
			s.SemanticDirs++
		}
	}
	s.AttrHits, s.AttrMisses = fs.attrs.stats()
	return s
}

// MetadataBytes estimates the on-disk footprint of HAC's per-directory
// data structures (queries, link classifications, the global map, the
// dependency graph, and the per-semantic-directory result bitmap of N/8
// bytes) — the paper's "222 KB vs 210 KB" experiment.
func (fs *FS) MetadataBytes() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	total := fs.names.SizeBytes()
	universe := fs.ix.Universe()
	for _, ds := range fs.dirs {
		total += 48 // fixed per-directory record
		total += len(ds.queryText)
		for t := range ds.class {
			total += len(t) + len(ds.linkName[t]) + 8
		}
		for t := range ds.prohibited {
			total += len(t) + 8
		}
		// The compact query-result representation: one bit per indexed
		// file (§4). The paper initializes this structure (to "empty")
		// for every directory at mkdir time, so every registered
		// directory carries the N/8-byte slot.
		total += (universe + 7) / 8
		// One dependency-graph node with its edges.
		total += 16 + 16*len(fs.graph.Deps(ds.uid))
	}
	return total
}

// SharedMemoryBytes reports the footprint of the attribute cache and
// descriptor table — the structures the paper keeps in per-process
// shared memory (~16 KB per process in §4).
func (fs *FS) SharedMemoryBytes() int {
	return fs.attrs.sizeBytes() + fs.fds.sizeBytes()
}
