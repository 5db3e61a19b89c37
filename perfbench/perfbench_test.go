package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {10, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rpc.ReadFile", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.admit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "serve.exec.ReadFile", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "cas.Stat", Start: 90, End: 120},           // runs past the parent
		{ID: 5, Parent: 3, Name: "cas.ReadFile", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100]: 60 of the parent's 100.
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if self[3] != 20 {
		t.Errorf("exec self time = %d, want 20", self[3])
	}
	if self[5] != 10 {
		t.Errorf("leaf self time = %d, want 10", self[5])
	}
}

func TestParseProc(t *testing.T) {
	io := parseProcIO("rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 2\nread_bytes: 0\n")
	if io["rchar"] != 3980 || io["wchar"] != 12 || io["syscr"] != 9 || io["syscw"] != 2 {
		t.Errorf("parseProcIO = %v", io)
	}
	// A command name holding spaces and a ')' must not shift the fields.
	stat := "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 3 0 123 456 789"
	if ticks, err := parseStatCPU(stat); err != nil || ticks != 22 {
		t.Errorf("parseStatCPU = %d, %v; want 22", ticks, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
	status := "Name:\tx\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n"
	if n, ok := parseCtxsw(status); !ok || n != 10 {
		t.Errorf("parseCtxsw = %d, %v; want 10", n, ok)
	}
	if _, ok := parseCtxsw("Name:\tx\n"); ok {
		t.Error("parseCtxsw reported switches that are not there")
	}
	// Guest columns (after steal) are already in user and nice.
	steal, total, ok := parseSteal("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n")
	if !ok || steal != 35 || total != 1000 {
		t.Errorf("parseSteal = %d, %d, %v; want 35, 1000", steal, total, ok)
	}
	if _, _, ok := parseSteal("intr 1 2 3\n"); ok {
		t.Error("parseSteal accepted a file without a cpu line")
	}
}

// TestSeedGivesSameOps checks that a seed fixes the inputs and the
// sequence of requests a stream draws, and that rewrites keep the terms
// the oracles count.
func TestSeedGivesSameOps(t *testing.T) {
	draw := func(seed int64) ([]string, []doc, [][]byte, *docSet) {
		c, err := generate(vfs.New(), "/c", 200, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var bodies [][]byte
		for _, d := range c.docs[:20] {
			bodies = append(bodies, c.content(rng, d))
		}
		keys := queryKeys(c, 400, []string{"/q_t0"})
		s := newStream("reader", seed+1, nil)
		qz := rand.NewZipf(s.rng, 1.05, 1, uint64(len(keys)-1))
		var ops []string
		for i := 0; i < 1000; i++ {
			k := keys[qz.Uint64()]
			ops = append(ops, k.q+"@"+k.scope)
		}
		return ops, c.docs, bodies, c
	}
	ops1, docs1, bodies1, c := draw(7)
	ops2, docs2, bodies2, _ := draw(7)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(docs1, docs2) || !reflect.DeepEqual(bodies1, bodies2) {
		t.Fatal("one seed gave two different input or request sequences")
	}
	_, docs3, _, _ := draw(8)
	if reflect.DeepEqual(docs1, docs3) {
		t.Fatal("different seeds gave the same corpus")
	}
	for i, b := range bodies1 {
		d := docs1[i]
		if len(b) != d.size {
			t.Fatalf("rewrite %d has %d bytes, manifest says %d", i, len(b), d.size)
		}
		terms := map[string]bool{}
		for _, w := range index.Tokenize(b) {
			terms[w] = true
		}
		for k, term := range c.topicTerm {
			if terms[term] != d.has(k) {
				t.Fatalf("rewrite %d: topic term %s present=%v, manifest says %v", i, term, terms[term], d.has(k))
			}
		}
		for _, m := range markerTerms {
			if terms[m] != d.marked(m) {
				t.Fatalf("rewrite %d: marker %s present=%v, manifest says %v", i, m, terms[m], d.marked(m))
			}
		}
	}
}

// TestWrappedCASStillCAS checks that the substrate and volume wrappers
// leave the program's content-addressed paths in play.
func TestWrappedCASStillCAS(t *testing.T) {
	store := cas.NewStore()
	fs := hac.New(newSubFS(cas.New(store), newTracer(), nil), hac.Options{Observer: obs.Discard()})
	if err := fs.WriteFile("/a.txt", []byte("apple pie")); err != nil {
		t.Fatal(err)
	}
	m, err := fs.CASManifest()
	if err != nil {
		t.Fatalf("CASManifest through the substrate wrapper: %v", err)
	}
	if len(m.Entries) == 0 {
		t.Fatal("manifest has no entries")
	}
	vol := &volFS{inner: fs}
	if _, err := vol.CASManifest(); err != nil {
		t.Fatalf("CASManifest through the volume wrapper: %v", err)
	}
	var img bytes.Buffer
	if err := fs.SaveVolume(&img); err != nil {
		t.Fatal(err)
	}
	back, err := hac.LoadVolume(&img, hac.Options{Observer: obs.Discard(), BlobStore: cas.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.CASManifest(); err != nil {
		t.Fatalf("reloaded image is not content-addressed (v4 lost): %v", err)
	}
	// A MemFS substrate still snapshots through the wrapper (v3 images).
	mem := hac.New(newSubFS(vfs.New(), nil, nil), hac.Options{Observer: obs.Discard()})
	if err := mem.WriteFile("/b.txt", []byte("pear")); err != nil {
		t.Fatal(err)
	}
	img.Reset()
	if err := mem.SaveVolume(&img); err != nil {
		t.Fatalf("SaveVolume over the wrapped MemFS: %v", err)
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and requires the oracles to pass.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && wl.name == "cba" {
				continue // the slowest set-up; its traced path is the andrew one with a shared substrate
			}
			rec, _, err := runWorkload(wl, 3, 1, traced, 1, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rec.Correct {
				t.Fatalf("%s traced=%v: failed %d: %v", wl.name, traced, rec.Failed, rec.Errors)
			}
			got := map[string]metric{}
			for _, m := range rec.Metrics {
				got[m.Name] = m
			}
			if !traced {
				for _, n := range reportedEndToEnd {
					if _, ok := got[n]; !ok {
						t.Errorf("%s: metric %s missing", wl.name, n)
					}
				}
				continue
			}
			for _, x := range perLayer {
				m, ok := got[x.name]
				if !ok || m.Unit != x.unit || m.Better != x.better {
					t.Errorf("%s: per-layer metric %s = %+v, want unit %s, %s", wl.name, x.name, m, x.unit, x.better)
				}
			}
		}
	}
}
