package hac

import (
	"fmt"
	"sort"

	"hacfs/internal/vfs"
)

// CheckConsistency audits the volume against the paper's invariants and
// returns a description of every violation found (empty means
// consistent). It verifies, for each semantic directory:
//
//   - I1: every local transient link target lies in the scope provided
//     by the parent;
//   - I4: no prohibited target is currently linked;
//   - I9: a memoized scope valid for the current key equals the scope
//     computed fresh;
//   - the physical symlinks in the directory match the classification
//     exactly (same names, same targets);
//   - the dependency graph has a node for the directory and an edge to
//     its parent.
//
// It is a diagnostic: it takes the volume lock (shared, so concurrent
// readers proceed) and is not cheap.
func (fs *FS) CheckConsistency() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var problems []string
	report := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	uids := make([]uint64, 0, len(fs.dirs))
	for uid := range fs.dirs {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })

	for _, uid := range uids {
		ds := fs.dirs[uid]
		dirPath, ok := fs.pathOfLocked(uid)
		if !ok {
			report("directory uid %d has no path in the global map", uid)
			continue
		}
		if !fs.graph.Has(uid) {
			report("%s: missing dependency-graph node", dirPath)
		}
		if !ds.semantic {
			continue
		}

		// I1: transient ⊆ parent scope (local targets only; remote
		// targets are checked against their namespaces at sync time).
		// Scope and ID resolution share one snapshot, so a merge
		// committing mid-audit cannot fabricate a violation.
		// The parent scope is computed fresh, not taken from its memo.
		snap := fs.ix.Snapshot()
		scope := fs.freshScopeLocked(snap, vfs.Dir(dirPath))
		for target, class := range ds.class {
			if class != Transient || IsRemoteTarget(target) {
				continue
			}
			if id, ok := fs.resolveIndexedLocked(snap, target); ok && !scope.Contains(id) {
				report("%s: I1 violated: transient %s outside parent scope", dirPath, target)
			}
		}
		// I9: a memoized scope still valid for its key equals a fresh
		// computation. Compared only while the index stands at the
		// snapshot's version, as the memo is only kept then.
		if m := ds.scope.Load(); m != nil && m.key == fs.scopeKeyLocked(ds, snap) {
			fresh := fs.semanticScopeLocked(snap, ds, dirPath)
			if fs.ix.Version() == snap.Version() && !fresh.Equal(m.set) {
				report("%s: I9 violated: memoized scope (%d docs) differs from a fresh one (%d docs)", dirPath, m.set.Len(), fresh.Len())
			}
		}
		// I4: prohibited ∩ linked = ∅.
		for target := range ds.prohibited {
			if _, linked := ds.class[target]; linked {
				report("%s: I4 violated: %s is both prohibited and linked", dirPath, target)
			}
		}
		// Physical links mirror the classification.
		entries, err := fs.under.ReadDir(dirPath)
		if err != nil {
			report("%s: unreadable: %v", dirPath, err)
			continue
		}
		physical := map[string]string{} // name → target
		for _, e := range entries {
			if e.Type != vfs.TypeSymlink {
				continue
			}
			if target, err := fs.under.Readlink(vfs.Join(dirPath, e.Name)); err == nil {
				physical[e.Name] = target
			}
		}
		for target, name := range ds.linkName {
			got, ok := physical[name]
			switch {
			case !ok:
				report("%s: classified link %s (→ %s) has no symlink", dirPath, name, target)
			case got != target:
				report("%s: symlink %s points to %s, classified as %s", dirPath, name, got, target)
			}
			delete(physical, name)
		}
		for name, target := range physical {
			report("%s: unclassified symlink %s → %s", dirPath, name, target)
		}
	}
	return problems
}
