package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

func topicDir(t int) string { return fmt.Sprintf("/q_t%d", t) }

// makeTopicDirs creates one semantic directory per topic at the root,
// where its query is scoped to the whole volume.
func makeTopicDirs(fs *hac.FS, c *docSet) ([]string, error) {
	dirs := make([]string, nTopics)
	for t := range dirs {
		dirs[t] = topicDir(t)
		if err := fs.SemDir(dirs[t], c.topicTerm[t]); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

const (
	// scratchClasses is the number of query classes scratchQuery rotates.
	scratchClasses = 6
	// probeRepeats is how often a probe cycle repeats Reindex and SyncAll.
	probeRepeats = 3
)

// scratchQuery returns the i-th query of the rotation of the paper's
// Table 4 query classes for the scratch semantic directory, and the
// number of links the manifest says it must materialise.
func scratchQuery(c *docSet, i int) (string, int) {
	t, u := i%nTopics, (i+3)%nTopics
	w := c.topicTerm
	mid := func(d doc) bool { return d.marked(termMid) }
	switch i % scratchClasses {
	case 0:
		return w[t], c.byTop[t]
	case 1:
		return w[t] + " AND " + termMid, c.count(func(d doc) bool { return d.has(t) && mid(d) })
	case 2:
		return w[t] + " OR " + w[u], c.count(func(d doc) bool { return d.has(t) || d.has(u) })
	case 3:
		return w[t] + " AND NOT " + termMid, c.count(func(d doc) bool { return d.has(t) && !mid(d) })
	case 4:
		prefix := w[t][:len(w[t])-3] // "topicN" of "topicNkey"
		return prefix + "*", c.count(func(d doc) bool {
			for _, k := range d.topics {
				if strings.HasPrefix(w[k], prefix) {
					return true
				}
			}
			return false
		})
	default:
		return "dir:" + topicDir(t) + " AND " + termMid, c.count(func(d doc) bool { return d.has(t) && mid(d) })
	}
}

// searcher runs the first page of seeded, Zipf-drawn searches against a
// hac.FS and checks the ones whose counts the manifest gives.
type searcher struct {
	fs      *hac.FS
	keys    []query
	z       *rand.Zipf
	matches samples // SearchStats().Matches per search, for the traced run
}

func (q *searcher) search(s *stream) {
	k := q.keys[q.z.Uint64()]
	var n int
	err := s.do(clsSearch, "hac", "Search", func() error {
		res, err := q.fs.Search(context.Background(), k.q, hac.WithScope(k.scope), hac.WithPageSize(20))
		if err != nil {
			return err
		}
		res.Next()
		n = res.Len()
		q.matches = append(q.matches, int64(res.Stats().Matches))
		return nil
	})
	if err == nil && k.want >= 0 {
		s.check(n == k.want, "search %q in %s: %d matches, manifest says %d", k.q, k.scope, n, k.want)
		s.observe("search %q %s %d", k.q, k.scope, n)
	}
}

// semdirLs lists a topic directory and checks its size.
func semdirLs(s *stream, fs *hac.FS, c *docSet, t int, nested int) {
	var n int
	err := s.do(clsSemdir, "hac", "SemReadDir", func() error {
		ents, err := fs.ReadDir(topicDir(t))
		n = len(ents)
		return err
	})
	if err == nil {
		s.check(n == c.byTop[t]+nested, "ls %s: %d entries, manifest says %d", topicDir(t), n, c.byTop[t]+nested)
		s.observe("ls %s %d", topicDir(t), n)
	}
}

// maintenance is the HAC user's consistency and persistence cycle:
// Reindex, SyncAll, smkdir and srmdir of a scratch semantic directory
// (rotating the Table 4 query classes), and a checkpoint.
type maintenance struct {
	fs       *hac.FS
	c        *docSet
	ckpt     string
	n        int     // scratch queries issued: the rotation position
	files    int     // files under "/" that Reindex walks
	examined samples // files walked per file changed, per Reindex
	ckptB    samples // checkpoint image bytes
	dirtied  int64   // bytes written since the last checkpoint
	amp      []float64
	// afterSync, when set, runs the workload's oracle on the state
	// SyncAll left.
	afterSync func(s *stream)
	// syncCls is the class SyncAll is timed in: clsNone where the
	// workload's ssync_ms is another operation (SyncPath in serve).
	syncCls int
}

// cycle runs one maintenance cycle. wantChanged is the number of files
// Reindex must find added, updated or removed.
//
// A probe cycle (probe true) runs with the workload's streams stopped.
// It collects garbage before each kind of step (once before the
// Reindex repeats, once before the SyncAll repeats), so its samples do
// not depend on where the collector happens to run, and it repeats
// Reindex and SyncAll probeRepeats times (the repeats find nothing
// changed), so a few cycles still give those metrics enough samples. A
// cycle inside a running window leaves the collector alone and runs
// each step once.
func (m *maintenance) cycle(s *stream, wantChanged int, probe bool) {
	gc := func() {
		if probe {
			runtime.GC()
		}
	}
	repeats := 1
	if probe {
		repeats = probeRepeats
	}
	gc()
	for i := 0; i < repeats; i++ {
		var rep hac.IndexReport
		if err := s.do(clsReindex, "hac", "Reindex", func() (err error) { rep, err = m.fs.Reindex("/"); return err }); err == nil {
			changed := rep.Added + rep.Updated + rep.Removed
			s.check(changed == wantChanged, "reindex changed %d files, want %d", changed, wantChanged)
			m.examined = append(m.examined, int64(m.files/max(changed, 1)))
		}
		wantChanged = 0
	}
	gc()
	for i := 0; i < repeats; i++ {
		if err := s.do(m.syncCls, "hac", "SyncAll", func() error { return m.fs.SyncAll() }); err == nil && m.afterSync != nil {
			m.afterSync(s)
		}
	}
	// One smkdir and srmdir per Table 4 query class. The cycle's sample
	// is the mean smkdir time over the classes, so every sample measures
	// the same mix.
	gc()
	start := time.Now()
	var sum time.Duration
	made := 0
	for k := 0; k < scratchClasses; k++ {
		q, want := scratchQuery(m.c, m.n)
		m.n++
		t0 := time.Now()
		if err := s.do(clsNone, "hac", "SemDir", func() error { return m.fs.SemDir("/q_scratch", q) }); err != nil {
			continue
		}
		sum += time.Since(t0)
		made++
		links, err := m.fs.LinkTargets("/q_scratch")
		s.check(err == nil && len(links) == want, "smkdir %q: %d links (%v), manifest says %d", q, len(links), err, want)
		s.observe("smkdir %q %d", q, len(links))
		_ = s.do(clsNone, "hac", "RemoveAll", func() error { return m.fs.RemoveAll("/q_scratch") })
	}
	if made == scratchClasses {
		s.record(clsSmkdir, start, sum/scratchClasses)
	}
	gc()
	if err := s.do(clsCheckpoint, "hac", "SaveVolumeFile", func() error { return m.fs.SaveVolumeFile(m.ckpt) }); err == nil {
		if st, err := os.Stat(m.ckpt); err == nil {
			m.ckptB = append(m.ckptB, st.Size())
			if m.dirtied > 0 {
				m.amp = append(m.amp, float64(st.Size())/float64(m.dirtied))
			}
		}
		m.dirtied = 0
	}
}

// reload checks that the last checkpoint loads back with the volume's
// file and semantic-directory counts.
func (m *maintenance) reload(chk *stream) {
	wantDirs := len(m.fs.SemanticDirs())
	wantFiles, err := countFiles(m.fs.Under())
	if err != nil {
		chk.fail("count files: %v", err)
		return
	}
	back, err := hac.LoadVolumeFile(m.ckpt, hac.Options{Observer: obs.Discard()})
	if err != nil {
		chk.fail("reload checkpoint: %v", err)
		return
	}
	gotFiles, err := countFiles(back.Under())
	chk.check(err == nil && gotFiles == wantFiles, "reloaded checkpoint has %d files (%v), volume %d", gotFiles, err, wantFiles)
	chk.check(len(back.SemanticDirs()) == wantDirs, "reloaded checkpoint has %d semantic dirs, volume %d", len(back.SemanticDirs()), wantDirs)
}

func countFiles(fsys vfs.FileSystem) (int, error) {
	n := 0
	err := vfs.Walk(fsys, "/", func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeFile {
			n++
		}
		return nil
	})
	return n, err
}

// maintenanceLayers adds the per-layer metrics the maintenance cycle
// measures.
func (m *maintenance) layers(ms *metricSet) {
	if len(m.examined) > 0 {
		ms.add(metric{Name: "index.reindex_examined_per_changed", Value: float64(percentile(sortedCopy(m.examined), 50)),
			Unit: "count", Better: "lower", Samples: len(m.examined), Note: "files walked per file changed, p50 over Reindex calls"})
	}
	if len(m.ckptB) > 0 {
		ms.add(metric{Name: "persist.checkpoint_mb", Value: float64(percentile(sortedCopy(m.ckptB), 50)) / (1 << 20),
			Unit: "MB", Better: "lower", Samples: len(m.ckptB)})
	}
	if len(m.amp) > 0 {
		ms.add(metric{Name: "persist.write_amp", Value: medianFloat(m.amp), Unit: "ratio", Better: "lower", Samples: len(m.amp),
			Note: "checkpoint bytes over bytes written since the previous checkpoint, median"})
	}
}

func checkpointPath(dir, name string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.hac", name, os.Getpid()))
}

func matchesLayer(ms *metricSet, matches samples) {
	if len(matches) == 0 {
		return
	}
	var sum int64
	for _, x := range matches {
		sum += x
	}
	ms.add(metric{Name: "plan.matches_per_search", Value: float64(sum) / float64(len(matches)), Unit: "count", Better: "lower", Samples: len(matches), Note: "mean"})
}
