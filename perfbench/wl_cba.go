package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"

	"hacfs/internal/andrew"
	"hacfs/internal/hac"
	"hacfs/internal/vfs/cas"
)

// The cba workload: the paper's content-based access (Tables 3 and 4)
// as users live it. A reader searches and lists semantic directories
// while a writer edits files, re-indexes, synchronises, creates and
// removes semantic directories and checkpoints, all on one hac.FS over
// the content-addressed substrate. The probe then runs Andrew rounds on
// the same volume; their steps are cba's read and write classes, timed
// without the reader and writer contending. The writer's edits stay out
// of the write class: they contend with the reader, and that contention
// shows in search_p99_us.
const (
	cbaFiles     = 20000
	cbaEditShare = 200 // one file in this many is edited per writer cycle
	cbaRounds    = 20  // Andrew rounds in the probe
)

type cbaWL struct {
	fs       *hac.FS
	store    *cas.BlobStore
	c        *docSet
	rd, wr   *stream
	q        *searcher
	m        *maintenance
	buildOps *opFS // the probe's Andrew rounds
	// edited is the set of files carrying markeredit, which the
	// markeredit directory must link after every SyncAll.
	edited map[string]bool
}

func setupCBA(e *env) (instance, error) {
	store := cas.NewStore()
	// Reader and writer share the substrate, so it has no lane of its
	// own: its calls are traced only in the probe, where the writer's
	// stream runs alone.
	sub := newSubFS(cas.New(store), e.tr, nil)
	fs := hac.New(sub, hac.Options{Observer: e.obsv})
	c, err := generate(fs, "/corpus", cbaFiles, 200, e.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	edited := map[string]bool{}
	for _, d := range c.docs {
		if d.marked(termEdit) {
			edited[d.path] = true
		}
	}
	if err := andrew.GenerateSource(fs, andrewSrc, andrewSpec); err != nil {
		return nil, fmt.Errorf("andrew source: %w", err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		return nil, fmt.Errorf("reindex: %w", err)
	}
	semdirs, err := makeTopicDirs(fs, c)
	if err != nil {
		return nil, fmt.Errorf("semantic dirs: %w", err)
	}
	for _, d := range semdirs {
		if err := fs.SemDir(d+"/mid", termMid); err != nil {
			return nil, fmt.Errorf("nested semantic dir: %w", err)
		}
	}
	if err := fs.SemDir("/q_ref", "dir:"+topicDir(0)+" AND NOT "+termMid); err != nil {
		return nil, fmt.Errorf("dir: semantic dir: %w", err)
	}
	if err := fs.SemDir("/q_edit", termEdit); err != nil {
		return nil, fmt.Errorf("markeredit semantic dir: %w", err)
	}
	keys := queryKeys(c, 4000, semdirs)
	rd := newStream("reader", e.seed+1, e.tr)
	wr := newStream("writer", e.seed+3, e.tr)
	wr.perRound = true // the probe's Andrew rounds
	wl := &cbaWL{
		fs: fs, store: store, c: c, rd: rd, wr: wr, edited: edited,
		q:        &searcher{fs: fs, keys: keys, z: rand.NewZipf(rd.rng, 1.05, 1, uint64(len(keys)-1))},
		buildOps: &opFS{inner: fs, s: wr, layer: "hac"},
		m: &maintenance{fs: fs, c: c, ckpt: checkpointPath(e.dir, "cba"), syncCls: clsSsync,
			files: cbaFiles + andrewSpec.Dirs*andrewSpec.FilesPerDir},
	}
	wl.m.afterSync = wl.checkEdited
	return wl, nil
}

func (b *cbaWL) streams() ([]*stream, []func(*stream)) {
	return []*stream{b.rd, b.wr}, []func(*stream){b.read, b.write}
}

func (b *cbaWL) foreground(s *stream) bool { return s == b.rd }

// read is one reader request: a search's first page (80%) or a semantic
// directory listing (20%).
func (b *cbaWL) read(s *stream) {
	if s.rng.Intn(10) < 8 {
		b.q.search(s)
	} else {
		semdirLs(s, b.fs, b.c, s.rng.Intn(nTopics), 1) // plus the nested "mid" directory
	}
}

// write is one writer cycle: an edit batch, then the maintenance cycle.
func (b *cbaWL) write(s *stream) {
	// Edit 0.5% of the files: same size, topics and other markers, with
	// markeredit toggled.
	changed := map[int]bool{}
	for len(changed) < cbaFiles/cbaEditShare {
		changed[s.rng.Intn(len(b.c.docs))] = true
	}
	order := make([]int, 0, len(changed))
	for i := range changed {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		d := &b.c.docs[i]
		d.markers ^= markerBit(termEdit)
		data := b.c.content(s.rng, *d)
		if err := s.do(clsNone, "hac", "WriteFile", func() error { return b.fs.WriteFile(d.path, data) }); err != nil {
			continue
		}
		if d.marked(termEdit) {
			b.edited[d.path] = true
		} else {
			delete(b.edited, d.path)
		}
		b.m.dirtied += int64(d.size)
	}
	b.m.cycle(s, len(order), false)
}

// checkEdited is the post-SyncAll oracle: the markeredit directory
// links exactly the files the writer left carrying markeredit.
func (b *cbaWL) checkEdited(s *stream) {
	links, err := b.fs.LinkTargets("/q_edit")
	if err != nil {
		s.fail("LinkTargets /q_edit: %v", err)
		return
	}
	ok := len(links) == len(b.edited)
	for _, l := range links {
		ok = ok && b.edited[l]
	}
	s.check(ok, "/q_edit links %d files, %d carry markeredit", len(links), len(b.edited))
	s.observe("edit-links %d", len(links))
}

// probe runs Andrew rounds with the reader and writer stopped. Each
// round starts from a collected heap: with this volume's live heap, a
// collection landing inside some rounds and not others would decide
// their times.
func (b *cbaWL) probe() {
	s := b.wr
	if s.tr != nil {
		s.tr.solo.Store(s.ln)
	}
	for i := 0; i < cbaRounds; i++ {
		runtime.GC()
		dst := fmt.Sprintf("%s%d", andrewBuild, i%2)
		var res andrew.Result
		if err := s.do(clsAndrew, "bench", "andrew_round", func() (err error) {
			res, err = andrew.Run(b.buildOps, andrewSrc, dst, andrewSpec)
			return err
		}); err == nil {
			checkAndrew(s, res, andrewSpec)
		}
		_ = b.buildOps.RemoveAll(dst)
	}
}

func (b *cbaWL) finish(chk *stream) {
	if v := b.fs.CheckConsistency(); len(v) > 0 {
		chk.fail("CheckConsistency: %d violations, first %s", len(v), v[0])
	}
	b.m.reload(chk)
}

func (b *cbaWL) layers(ms *metricSet) {
	b.m.layers(ms)
	matchesLayer(ms, b.q.matches)
	casLayers(ms, b.store)
}

func casLayers(ms *metricSet, store *cas.BlobStore) {
	ms.add(metric{Name: "cas.dedup_ratio", Value: store.DedupRatio(), Unit: "ratio", Better: "higher", Samples: store.Blobs(), Note: "logical over unique bytes, at end of run"})
	ms.add(metric{Name: "cas.unique_mb", Value: float64(store.UniqueBytes()) / (1 << 20), Unit: "MB", Better: "lower", Samples: store.Blobs(), Note: "at end of run"})
}

func (b *cbaWL) close() { os.Remove(b.m.ckpt) }
