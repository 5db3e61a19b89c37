package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"hacfs/internal/andrew"
	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

// The andrew workload: one HAC user repeating the paper's Andrew rounds
// (Table 1 traffic) in a volume that also holds an indexed corpus and
// semantic directories, which stay idle during the window. The probe
// then runs searches, semantic listings and maintenance cycles.
const (
	andrewSrc     = "/home/user/work/proj/src"
	andrewBuild   = "/home/user/work/proj/build"
	andrewCorpus  = 5000
	probeSearches = 20000
	probeListings = 2000
	probeCycles   = 10
)

var andrewSpec = andrew.Spec{Dirs: 40, FilesPerDir: 25, FileSize: 4096, MakeRounds: 4}

type andrewWL struct {
	fs    *hac.FS
	c     *docSet
	s     *stream
	ops   *opFS
	q     *searcher
	m     *maintenance
	round int
}

func setupAndrew(e *env) (instance, error) {
	s := newStream("andrew", e.seed+1, e.tr)
	s.sampleEvery = 16 // a round holds thousands of spans
	s.perRound = true
	fs := hac.New(newSubFS(vfs.New(), e.tr, s.ln), hac.Options{Observer: e.obsv})
	c, err := generate(fs, "/corpus", andrewCorpus, 50, e.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
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
	keys := queryKeys(c, 3000, semdirs)
	wl := &andrewWL{
		fs: fs, c: c, s: s,
		ops: &opFS{inner: fs, s: s, layer: "hac"},
		q:   &searcher{fs: fs, keys: keys, z: rand.NewZipf(s.rng, 1.05, 1, uint64(len(keys)-1))},
		m: &maintenance{fs: fs, c: c, ckpt: checkpointPath(e.dir, "andrew"), syncCls: clsSsync,
			files: andrewCorpus + andrewSpec.Dirs*andrewSpec.FilesPerDir},
	}
	return wl, nil
}

func (a *andrewWL) streams() ([]*stream, []func(*stream)) {
	return []*stream{a.s}, []func(*stream){a.step}
}

func (a *andrewWL) foreground(*stream) bool { return true }

// step is one Andrew round.
func (a *andrewWL) step(s *stream) {
	dst := fmt.Sprintf("%s%d", andrewBuild, a.round%2)
	a.round++
	var res andrew.Result
	err := s.do(clsAndrew, "bench", "andrew_round", func() (err error) {
		res, err = andrew.Run(a.ops, andrewSrc, dst, andrewSpec)
		return err
	})
	if err == nil {
		checkAndrew(s, res, andrewSpec)
		_, err := a.ops.Stat(dst + "/a.out")
		s.check(err == nil, "a.out missing after round: %v", err)
	}
	_ = a.ops.RemoveAll(dst)
}

func (a *andrewWL) probe() {
	s := a.s
	runtime.GC()
	for i := 0; i < probeSearches; i++ {
		a.q.search(s)
	}
	runtime.GC()
	for i := 0; i < probeListings; i++ {
		semdirLs(s, a.fs, a.c, s.rng.Intn(nTopics), 0)
	}
	runtime.GC()
	for i := 0; i < probeCycles; i++ {
		a.m.cycle(s, 0, true)
	}
}

// checkAndrew compares a round's counts with the spec: every source
// directory (and the root) made, every file read, and every object in
// the copy scanned.
func checkAndrew(s *stream, res andrew.Result, spec andrew.Spec) {
	dirs, files := spec.Dirs+1, spec.Dirs*spec.FilesPerDir
	s.check(res.DirsMade == dirs && res.FilesRead == files && res.Scanned == dirs+files,
		"andrew counts dirs=%d files=%d scanned=%d, want %d %d %d", res.DirsMade, res.FilesRead, res.Scanned, dirs, files, dirs+files)
	s.observe("andrew %d %d %d", res.DirsMade, res.FilesRead, res.Scanned)
}

func (a *andrewWL) finish(chk *stream) {
	if v := a.fs.CheckConsistency(); len(v) > 0 {
		chk.fail("CheckConsistency: %d violations, first %s", len(v), v[0])
	}
	a.m.reload(chk)
}

func (a *andrewWL) layers(ms *metricSet) {
	a.m.layers(ms)
	matchesLayer(ms, a.q.matches)
}

func (a *andrewWL) close() { os.Remove(a.m.ckpt) }
