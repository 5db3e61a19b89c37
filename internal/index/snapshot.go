package index

import (
	gopath "path"

	"hacfs/internal/bitset"
)

// Snapshot is an epoch-pinned read view of the index: the set of
// segments resident when it was taken, with the active segment capped
// at its committed length and every segment's tombstones as they stood
// at pin time. A multi-call query evaluation (one Lookup per term, then
// Paths) sees a single consistent ID space and a single liveness state
// even while merges and Reindex commits land concurrently — the
// snapshot keeps references to the pinned segments, which a merge
// retires but never mutates, and to their pinned dead bitmaps, which
// the writer copies rather than mutates (segment.deadPinned). A
// document updated or deleted after the pin keeps matching in the
// snapshot; its replacement, committed after the pin, does not.
type Snapshot struct {
	ix       *Index
	epoch    uint64
	version  uint64
	segs     []*pinnedSeg // sealed (pin order) then active
	bySeg    map[uint32]*pinnedSeg
	activeID uint32
}

// pinnedSeg is one segment as a snapshot sees it. Its dead and
// deadCount fields shadow the segment's live ones, so every read
// through a pinnedSeg filters against the pin-time tombstones; n is the
// number of slots committed at pin time.
type pinnedSeg struct {
	*segment
	dead      *bitset.Bitmap
	deadCount int
	n         int
}

// aliveLocal returns the slots live at pin time. Caller holds ix.mu.
func (p *pinnedSeg) aliveLocal() *bitset.Bitmap {
	bm := bitset.FullBitmap(p.n)
	bm.AndNot(p.dead)
	return bm
}

// liveAt reports whether local slot l was committed and live at pin
// time.
func (p *pinnedSeg) liveAt(l uint32) bool {
	return int(l) < p.n && !p.dead.Contains(l)
}

// Snapshot pins the current segment set and its tombstones.
func (ix *Index) Snapshot() *Snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sn := &Snapshot{
		ix:       ix,
		epoch:    ix.epoch,
		version:  ix.version.Load(),
		segs:     make([]*pinnedSeg, 0, len(ix.sealed)+1),
		bySeg:    make(map[uint32]*pinnedSeg, len(ix.sealed)+1),
		activeID: ix.active.id,
	}
	ix.eachSegmentLocked(func(s *segment) {
		s.deadPinned.Store(true)
		p := &pinnedSeg{segment: s, dead: s.dead, deadCount: s.deadCount, n: len(s.docs)}
		sn.segs = append(sn.segs, p)
		sn.bySeg[s.id] = p
	})
	return sn
}

// Epoch returns the merge epoch the snapshot pinned.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Version returns the index mutation counter at pin time. Two
// snapshots with equal versions answer every query identically, which
// is what the planner's result cache keys on.
func (sn *Snapshot) Version() uint64 { return sn.version }

// capSeg limits a result bitmap of segment s to the slots committed at
// pin time (only the active segment can have grown since).
func (sn *Snapshot) capSeg(s *pinnedSeg, bm *bitset.Bitmap) *bitset.Bitmap {
	if s.id == sn.activeID {
		bm.Trim(s.n)
	}
	return bm
}

// Lookup returns the live documents containing term, within the pinned
// segment set.
func (sn *Snapshot) Lookup(term string) *bitset.Segmented {
	term = normalizeTerm(term)
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if bm, ok := s.postings[term]; ok {
			live := bm.Clone()
			live.AndNot(s.dead)
			out.PutSeg(s.id, sn.capSeg(s, live))
		}
	}
	return out
}

// LookupPrefix returns the live documents containing any term with the
// given prefix.
func (sn *Snapshot) LookupPrefix(prefix string) *bitset.Segmented {
	prefix = normalizeTerm(prefix)
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		var acc *bitset.Bitmap
		or := func(bm *bitset.Bitmap) {
			if acc == nil {
				acc = bm.Clone()
			} else {
				acc.Or(bm)
			}
		}
		if s.sealed {
			s.dictionary().prefixRange(prefix, func(term string) { or(s.postings[term]) })
		} else {
			for term, bm := range s.postings {
				if len(term) >= len(prefix) && term[:len(prefix)] == prefix {
					or(bm)
				}
			}
		}
		if acc != nil {
			acc.AndNot(s.dead)
			out.PutSeg(s.id, sn.capSeg(s, acc))
		}
	}
	return out
}

// LookupFuzzy returns the live documents containing any term within
// edit distance 1 of term.
func (sn *Snapshot) LookupFuzzy(term string) *bitset.Segmented {
	term = normalizeTerm(term)
	out := bitset.NewSegmented()
	if term == "" {
		return out
	}
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		var acc *bitset.Bitmap
		or := func(bm *bitset.Bitmap) {
			if acc == nil {
				acc = bm.Clone()
			} else {
				acc.Or(bm)
			}
		}
		if s.sealed {
			s.dictionary().fuzzyCandidates(term, func(c string) { or(s.postings[c]) })
		} else {
			for candidate, bm := range s.postings {
				if withinOneEdit(term, candidate) {
					or(bm)
				}
			}
		}
		if acc != nil {
			acc.AndNot(s.dead)
			out.PutSeg(s.id, sn.capSeg(s, acc))
		}
	}
	return out
}

// AllDocs returns all live documents in the pinned set.
func (sn *Snapshot) AllDocs() *bitset.Segmented {
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		out.PutSeg(s.id, s.aliveLocal())
	}
	return out
}

// DocsUnder returns the live documents under root, within the pinned
// set. Non-"/" roots resolve through the per-segment composite dirs
// index (dirs.go): one map probe per segment instead of a scan over
// every doc entry.
func (sn *Snapshot) DocsUnder(root string) *bitset.Segmented {
	root = gopath.Clean(root)
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	if root == "/" {
		for _, s := range sn.segs {
			out.PutSeg(s.id, s.aliveLocal())
		}
		return out
	}
	selfID, selfOK := sn.idOfLocked(root)
	for _, s := range sn.segs {
		scope := sn.scopeLocalLocked(s, root, selfID, selfOK)
		if scope == nil {
			continue
		}
		if s.deadCount > 0 {
			scope.AndNotBitmap(s.dead)
		}
		if s.id == sn.activeID {
			scope.Trim(s.n)
		}
		out.PutSegContainer(s.id, scope)
	}
	return out
}

// scopeLocalLocked returns a fresh container of s's local slots under
// root (alive or dead; caller applies the dead mask), or nil when the
// segment holds none. selfID/selfOK name the pinned document at exactly
// root, if any — vfs.HasPrefix(p, root) matches p == root, so a file
// path used as a scope selects the file itself. Caller holds ix.mu.
func (sn *Snapshot) scopeLocalLocked(s *pinnedSeg, root string, selfID DocID, selfOK bool) *bitset.Container {
	var scope *bitset.Container
	if c, ok := s.dirs[root]; ok {
		scope = c.Clone()
	}
	if selfOK {
		if seg, local := splitID(selfID); seg == s.id {
			if scope == nil {
				scope = bitset.NewContainer()
			}
			scope.Add(local)
		}
	}
	return scope
}

// LookupUnder returns the live documents containing term whose path
// lies under root, touching only in-scope postings — the composite
// path-prefix × term lookup. The second result counts the posting
// entries the scope pruning avoided examining (whole segments whose
// dirs map lacks root count all their postings; intersected segments
// count the postings beyond the scope's cardinality).
func (sn *Snapshot) LookupUnder(term, root string) (*bitset.Segmented, int) {
	root = gopath.Clean(root)
	if root == "/" {
		return sn.Lookup(term), 0
	}
	term = normalizeTerm(term)
	out := bitset.NewSegmented()
	skipped := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	selfID, selfOK := sn.idOfLocked(root)
	for _, s := range sn.segs {
		bm, ok := s.postings[term]
		if !ok {
			continue
		}
		scope := sn.scopeLocalLocked(s, root, selfID, selfOK)
		if scope == nil {
			skipped += bm.Len() // whole segment out of scope
			continue
		}
		if d := bm.Len() - scope.Len(); d > 0 {
			skipped += d
		}
		scope.AndBitmap(bm)
		if s.deadCount > 0 {
			scope.AndNotBitmap(s.dead)
		}
		if s.id == sn.activeID {
			scope.Trim(s.n)
		}
		out.PutSegContainer(s.id, scope)
	}
	return out, skipped
}

// TermCost returns the total posting cardinality of term across the
// pinned segments — the planner's per-term selectivity estimate. Dead
// slots are counted (they cost iteration work even though they are
// filtered), which keeps the estimate one map probe per segment.
func (sn *Snapshot) TermCost(term string) int {
	term = normalizeTerm(term)
	n := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if bm, ok := s.postings[term]; ok {
			n += bm.Len()
		}
	}
	return n
}

// ScopeCost returns how many slots lie under root across the pinned
// segments (dead included) — the planner's scope selectivity estimate.
func (sn *Snapshot) ScopeCost(root string) int {
	root = gopath.Clean(root)
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	if root == "/" {
		n := 0
		for _, s := range sn.segs {
			n += s.n
		}
		return n
	}
	n := 0
	for _, s := range sn.segs {
		if c, ok := s.dirs[root]; ok {
			n += c.Len()
		}
	}
	return n
}

// Paths maps a result set to its sorted document paths. IDs outside the
// pinned set are resolved through the index's forward tables first, so
// mixing an older result into a newer snapshot degrades gracefully.
func (sn *Snapshot) Paths(res *bitset.Segmented) []string {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	out := make([]string, 0, res.Len())
	res.Range(func(id uint64) bool {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if s.liveAt(local) {
				out = append(out, s.docs[local].path)
			}
			return true
		}
		if s, local2, ok := sn.ix.resolveLocked(id); ok && s.docs[local2].alive {
			out = append(out, s.docs[local2].path)
		}
		return true
	})
	sortStrings(out)
	return out
}

// PathsOf maps a batch of pinned IDs to their paths, in input order,
// skipping IDs that no longer resolve to a live document. Unlike Paths
// it does not sort — the paged SearchResult iterator materializes one
// page at a time in ID order, and sorting would force the whole result
// set eager again.
func (sn *Snapshot) PathsOf(ids []DocID) []string {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if s.liveAt(local) {
				out = append(out, s.docs[local].path)
			}
			continue
		}
		if s, l, ok := sn.ix.resolveLocked(id); ok && s.docs[l].alive {
			out = append(out, s.docs[l].path)
		}
	}
	return out
}

// PathOf resolves one pinned ID to its path.
func (sn *Snapshot) PathOf(id DocID) (string, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	seg, local := splitID(id)
	if s, ok := sn.bySeg[seg]; ok {
		if s.liveAt(local) {
			return s.docs[local].path, true
		}
		return "", false
	}
	if s, l, ok := sn.ix.resolveLocked(id); ok && s.docs[l].alive {
		return s.docs[l].path, true
	}
	return "", false
}

// IDOf resolves a path to a document ID within the pinned segment set.
// If the document moved to a post-pin segment (a merge committed after
// the snapshot was taken), the ID is mapped back through the merged
// segments' provenance tables so it stays comparable with the
// snapshot's other results.
func (sn *Snapshot) IDOf(path string) (DocID, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	return sn.idOfLocked(path)
}

// idOfLocked is IDOf with ix.mu already held.
func (sn *Snapshot) idOfLocked(path string) (DocID, bool) {
	id, ok := sn.ix.byPath[path]
	if !ok {
		return 0, false
	}
	// The byPath entry may lag a merge commit (the repoint is batched);
	// canonicalize it forward to a resident slot before mapping it back
	// into the pinned set through the provenance chains.
	if s, local, ok := sn.ix.resolveLocked(id); ok {
		id = makeID(s.id, local)
	}
	for hops := 0; hops < 64; hops++ {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if int(local) >= s.n {
				return 0, false // committed after the pin
			}
			return id, true
		}
		s, ok := sn.ix.bySeg[seg]
		if !ok || s.prev == nil || int(local) >= len(s.prev) {
			return 0, false
		}
		id = s.prev[local]
	}
	return 0, false
}

// IDsOf maps paths to their pinned document IDs (see IDOf).
func (sn *Snapshot) IDsOf(paths []string) *bitset.Segmented {
	out := bitset.NewSegmented()
	for _, p := range paths {
		if id, ok := sn.IDOf(p); ok {
			out.Add(id)
		}
	}
	return out
}
