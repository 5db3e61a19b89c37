// Command perfbench is hacfs's end-to-end benchmark. It runs one of
// three closed-loop workloads (andrew, cba, serve) against the real
// code with no emulated latency, checks the program's outputs, and
// prints the end-to-end metrics or, with --trace 1, the per-layer
// metrics of a traced run. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cba --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"hacfs/internal/obs"
)

// stream is one closed-loop request stream: it sends its next request
// only when the previous one has returned. All its fields are owned by
// the stream's goroutine until the run ends.
type stream struct {
	name     string
	ln       *lane
	tr       *tracer
	rng      *rand.Rand
	warmEnd  time.Time
	deadline time.Time

	// sampleEvery: one request in this many is traced; depth and reqs
	// track requests (operations not nested in another).
	sampleEvery int
	depth       int
	reqs        int

	lat [numClasses]samples
	// perRound marks a stream whose read and write samples come from
	// Andrew rounds; cuts[c] holds where each measured round starts in
	// lat[c].
	perRound  bool
	cuts      [numClasses][]int
	attempted int
	failed    int
	done      int // measured operations that completed inside the window
	errs      []string
	// seen records the oracle's observations in order; a traced and an
	// untraced run of one seed must agree on their common prefix.
	seen []string
}

const (
	maxErrs = 8
	maxSeen = 20000
)

func newStream(name string, seed int64, tr *tracer) *stream {
	return &stream{name: name, ln: &lane{}, tr: tr, rng: rand.New(rand.NewSource(seed)), sampleEvery: 4}
}

// do runs fn as one timed operation of class cls. Operations started
// during warm-up run but are not measured; a failure always counts.
func (s *stream) do(cls int, layer, op string, fn func() error) error {
	if s.tr != nil && s.depth == 0 {
		s.reqs++
		// Hash the request number rather than take it modulo, so a
		// stream whose requests alternate (a round, then its RemoveAll)
		// still has every kind sampled.
		if (uint64(s.reqs)*0x9E3779B97F4A7C15)>>32%uint64(s.sampleEvery) == 0 {
			s.ln.sampled.Store(true)
			defer s.ln.sampled.Store(false)
		}
	}
	s.depth++
	a := s.tr.beginRequest(s.ln)
	t0 := time.Now()
	if s.perRound && cls == clsAndrew && !t0.Before(s.warmEnd) {
		for c := range s.cuts {
			s.cuts[c] = append(s.cuts[c], len(s.lat[c]))
		}
	}
	err := fn()
	t1 := time.Now()
	s.tr.end(a, layer, op, true)
	s.depth--
	warm := t0.Before(s.warmEnd)
	if warm && err == nil {
		return nil
	}
	s.attempted++
	if err != nil {
		s.fail("%s.%s: %v", layer, op, err)
		return err
	}
	if cls == clsNone {
		return nil
	}
	s.lat[cls] = append(s.lat[cls], int64(t1.Sub(t0)))
	if cls != clsAndrew && !t1.After(s.deadline) {
		s.done++
	}
	return nil
}

// record adds a latency the caller timed itself, started at t0.
func (s *stream) record(cls int, t0 time.Time, d time.Duration) {
	if !t0.Before(s.warmEnd) {
		s.lat[cls] = append(s.lat[cls], int64(d))
	}
}

// fail counts one failed operation or oracle check.
func (s *stream) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < maxErrs {
		s.errs = append(s.errs, s.name+": "+fmt.Sprintf(format, args...))
	}
}

// check is an oracle assertion.
func (s *stream) check(ok bool, format string, args ...any) {
	if !ok {
		s.fail("oracle: "+format, args...)
	}
}

// observe records one oracle observation.
func (s *stream) observe(format string, args ...any) {
	if len(s.seen) < maxSeen {
		s.seen = append(s.seen, fmt.Sprintf(format, args...))
	}
}

// env is what a workload's set-up gets.
type env struct {
	seed int64
	tr   *tracer // nil in untraced runs
	dir  string  // scratch directory for checkpoints, inside the checkout
	obsv *obs.Observer
}

// instance is one set-up workload, ready to run.
type instance interface {
	// streams returns the workload's request streams and, for each,
	// the loop body that runs one step of it.
	streams() ([]*stream, []func(*stream))
	// foreground names the streams whose operations count in ops_per_s.
	foreground(s *stream) bool
	// probe runs, after the window, a fixed amount of the operations the
	// workload's own mix does not contain, so that every end-to-end
	// metric is measured on every workload from the same amount of work.
	probe()
	// finish runs the end-of-run oracles, outside the timed window,
	// recording failures on chk.
	finish(chk *stream)
	// layers adds the workload's own per-layer metrics of a traced run.
	layers(m *metricSet)
	close()
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"andrew", setupAndrew},
	{"cba", setupCBA},
	{"serve", setupServe},
}

// phase is one measured run of a workload: set-up, warm-up, the timed
// window and the end-of-run oracles.
type phase struct {
	setupS  []float64
	heapMB  float64
	inst    instance
	streams []*stream
	chk     *stream
	window  time.Duration
	before  procSample
	after   procSample
	tr      *tracer
	spans   []span
	obsv    *obs.Observer
	// before and after are the process counters at the start and end
	// of the window; regBefore and regAfter are the program's registry
	// at the start of the window and the end of the probe.
	regBefore, regAfter map[string]float64
	wallOps             int // foreground operations completed in the window
	allOps              int // the window's measured operations but whole Andrew rounds
	attempt             int
	failed              int
	errs                []string
	seenByLn            map[string][]string
}

const (
	warmup = time.Second
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is the median.
	setupRuns = 3
)

func runPhase(wl workload, seed int64, seconds int, traced bool, setups int, dir string) (*phase, error) {
	p := &phase{chk: newStream("oracle", seed, nil), seenByLn: make(map[string][]string)}
	if traced {
		p.tr = newTracer()
	}
	for i := 0; i < setups; i++ {
		if p.inst != nil {
			p.inst.close()
			p.inst = nil
		}
		runtime.GC()
		p.obsv = obs.NewObserver()
		t0 := time.Now()
		inst, err := wl.setup(&env{seed: seed, tr: p.tr, dir: dir, obsv: p.obsv})
		if err != nil {
			if p.inst != nil {
				p.inst.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.inst = inst
	}
	defer p.inst.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	streams, bodies := p.inst.streams()
	p.streams = streams
	start := time.Now()
	warmEnd := start.Add(warmup)
	deadline := warmEnd.Add(time.Duration(seconds) * time.Second)
	done := make(chan struct{})
	for i, s := range streams {
		s.warmEnd, s.deadline = warmEnd, deadline
		go func(s *stream, body func(*stream)) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(s.deadline) {
				body(s)
			}
		}(s, bodies[i])
	}
	time.Sleep(time.Until(warmEnd))
	p.before = readProc()
	p.regBefore = p.obsv.Registry().Snapshot()
	if p.tr != nil {
		p.tr.on.Store(true)
	}
	for range streams {
		<-done
	}
	// The process counters cover the window only: the probe's forced
	// collections and checkpoint writes are the benchmark's doing, not
	// the mix's.
	p.after = readProc()
	for _, s := range streams {
		for cls, l := range s.lat {
			if cls != clsAndrew {
				p.allOps += len(l)
			}
		}
	}
	// The probe runs a fixed operation sequence: reseed the streams so
	// it does not depend on how far the window got, and keep its oracle
	// observations apart from the window's.
	for i, s := range streams {
		p.seenByLn[s.name+"/window"] = s.seen
		s.seen = nil
		s.rng.Seed(seed + 1000 + int64(i))
	}
	p.inst.probe()
	if p.tr != nil {
		p.tr.on.Store(false)
		p.spans = p.tr.snapshot()
	}
	p.regAfter = p.obsv.Registry().Snapshot()
	p.window = time.Duration(seconds) * time.Second
	p.inst.finish(p.chk)
	for _, s := range append(streams, p.chk) {
		if p.inst.foreground(s) {
			p.wallOps += s.done
		}
		p.attempt += s.attempted
		p.failed += s.failed
		p.errs = append(p.errs, s.errs...)
		p.seenByLn[s.name+"/probe"] = s.seen
	}
	return p, nil
}

// merged returns every stream's samples of class cls.
func (p *phase) merged(cls int) samples {
	var out samples
	for _, s := range p.streams {
		out = append(out, s.lat[cls]...)
	}
	return out
}

// rounds returns class cls's samples of every perRound stream, one
// slice per measured Andrew round (the round and what its stream did
// before the next one).
func (p *phase) rounds(cls int) (groups []samples) {
	for _, s := range p.streams {
		if !s.perRound {
			continue
		}
		cuts := append(append([]int(nil), s.cuts[cls]...), len(s.lat[cls]))
		for k := 0; k+1 < len(cuts); k++ {
			if cuts[k+1] > cuts[k] {
				groups = append(groups, s.lat[cls][cuts[k]:cuts[k+1]])
			}
		}
	}
	return groups
}

// classLatency adds the p50 and tail metrics of class cls. Where the
// samples come from Andrew rounds (only perRound streams take them),
// each is the median over rounds of the round's own percentile, so one
// round the host slowed weighs no more than another.
func (p *phase) classLatency(m *metricSet, cls int, p50Name, tailName string) {
	groups := p.rounds(cls)
	if len(groups) == 0 {
		all := p.merged(cls)
		m.p50(p50Name, all, "us")
		m.tail(tailName, all, "us")
		return
	}
	m.roundLatency(p50Name, groups, false)
	m.roundLatency(tailName, groups, true)
}

func (p *phase) opsPerSec() float64 { return float64(p.wallOps) / p.window.Seconds() }

// endToEnd computes the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd() *metricSet {
	m := &metricSet{}
	m.add(metric{Name: "setup_s", Value: medianFloat(p.setupS), Unit: "s", Better: "lower", Samples: len(p.setupS), Note: "median of set-ups in this run"})
	m.add(metric{Name: "heap_mb", Value: p.heapMB, Unit: "MB", Better: "lower", Samples: 1})
	m.add(metric{Name: "error_rate", Value: float64(p.failed) / float64(max(p.attempt, 1)), Unit: "ratio", Better: "lower", Samples: p.attempt})
	m.add(metric{Name: "ops_per_s", Value: p.opsPerSec(), Unit: "op/s", Better: "higher", Samples: p.wallOps})
	m.p50("andrew_ms", p.merged(clsAndrew), "ms")
	p.classLatency(m, clsRead, "read_p50_us", "read_p99_us")
	p.classLatency(m, clsWrite, "write_p50_us", "write_p99_us")
	m.p50("search_p50_us", p.merged(clsSearch), "us")
	m.tail("search_p99_us", p.merged(clsSearch), "us")
	m.p50("semdir_ls_p50_us", p.merged(clsSemdir), "us")
	m.p50("ssync_ms", p.merged(clsSsync), "ms")
	m.p50("reindex_ms", p.merged(clsReindex), "ms")
	m.p50("smkdir_ms", p.merged(clsSmkdir), "ms")
	m.p50("checkpoint_ms", p.merged(clsCheckpoint), "ms")
	return m
}

// runRecord is everything a run writes about itself besides the result
// line: host, program, inputs and each metric's unit, direction and
// sample count.
type runRecord struct {
	Workload        string `json:"workload"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Trace           bool   `json:"trace"`
	NumCPU          int    `json:"num_cpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	CheckpointDir   string `json:"checkpoint_dir"`
	CheckpointDirFS string `json:"checkpoint_dir_fs"`
	EmulatedLatency string `json:"emulated_latency"`
	// HostStealPct is the CPU time the hypervisor gave to other guests
	// during the measured window, in percent of the machine's: a run
	// with much of it is slow for reasons outside the program.
	HostStealPct     float64  `json:"host_steal_pct"`
	Correct          bool     `json:"correct"`
	Attempted        int      `json:"attempted"`
	Failed           int      `json:"failed"`
	Errors           []string `json:"errors,omitempty"`
	Metrics          []metric `json:"metrics"`
	SpansFile        string   `json:"spans_file,omitempty"`
	SpansRecorded    int      `json:"spans_recorded,omitempty"`
	OracleComparison string   `json:"oracle_comparison,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown (built outside a git checkout)"
}

// result is the last line of standard output: what the benchmark's
// caller reads.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// reportedEndToEnd lists the metrics an untraced run's result line
// carries. error_rate is 0 on a correct run, so it is reported in the
// run record and through attempted and failed instead.
var reportedEndToEnd = []string{
	"setup_s", "heap_mb", "ops_per_s", "andrew_ms",
	"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
	"search_p50_us", "search_p99_us", "semdir_ls_p50_us",
	"ssync_ms", "reindex_ms", "smkdir_ms", "checkpoint_ms",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "andrew, cba, serve, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad --seconds or --trace")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work"))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(*seed, *seconds, dir)
	}
	for _, wl := range workloads {
		if wl.name == *name {
			rec, line, err := runWorkload(wl, *seed, *seconds, *trace == 1, setupRuns, dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			printReport(rec)
			fmt.Println(line)
			if !rec.Correct {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want andrew, cba, serve or all)\n", *name)
	return 2
}

// runWorkload runs one workload and returns its run record and result
// line.
func runWorkload(wl workload, seed int64, seconds int, traced bool, setups int, dir string) (*runRecord, string, error) {
	rec := &runRecord{
		Workload: wl.name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), CheckpointDir: dir, CheckpointDirFS: fsTypeName(dir),
		EmulatedLatency: "none",
	}
	var keep []string
	var ms *metricSet
	var phases []*phase
	if !traced {
		p, err := runPhase(wl, seed, seconds, false, setups, dir)
		if err != nil {
			return nil, "", err
		}
		phases = []*phase{p}
		ms = p.endToEnd()
		keep = reportedEndToEnd
	} else {
		// The untraced phase gives the baseline for the tracing overhead
		// and the oracle outputs the traced phase must reproduce.
		plain, err := runPhase(wl, seed, seconds, false, 1, dir)
		if err != nil {
			return nil, "", err
		}
		traced, err := runPhase(wl, seed, seconds, true, 1, dir)
		if err != nil {
			return nil, "", err
		}
		phases = []*phase{plain, traced}
		ms = &metricSet{}
		traced.inst.layers(ms)
		procLayers(ms, traced)
		over := 0.0
		if b := plain.opsPerSec(); b > 0 {
			over = (b - traced.opsPerSec()) / b * 100
		}
		ms.add(metric{Name: "obs.trace_overhead_pct", Value: over, Unit: "%", Better: "lower", Samples: traced.wallOps,
			Note: "ops_per_s of the untraced phase against the traced phase, same seed"})
		cmp := compareSeen(plain.seenByLn, traced.seenByLn)
		fillLayers(ms, wl.name)
		rec.OracleComparison = cmp
		if cmp != "identical" {
			traced.failed++
			traced.errs = append(traced.errs, "traced and untraced oracle outputs differ: "+cmp)
		}
		spansFile := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", wl.name, seed))
		if err := writeSpans(spansFile, traced.spans); err != nil {
			return nil, "", err
		}
		rec.SpansFile, rec.SpansRecorded = spansFile, len(traced.spans)
		for _, x := range perLayer {
			keep = append(keep, x.name)
		}
	}
	rec.HostStealPct = stealPct(phases[len(phases)-1].before, phases[len(phases)-1].after)
	for _, p := range phases {
		rec.Attempted += p.attempt
		rec.Failed += p.failed
		rec.Errors = append(rec.Errors, p.errs...)
	}
	rec.Correct = rec.Failed == 0
	rec.Metrics = ms.list
	res := result{Correct: rec.Correct, Attempted: max(rec.Attempted, 1), Failed: rec.Failed, Metrics: map[string]map[string]any{}}
	for _, n := range keep {
		x, ok := ms.get(n)
		if !ok {
			return nil, "", fmt.Errorf("metric %s missing", n)
		}
		res.Metrics[n] = map[string]any{"value": x.Value, "unit": x.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, "", err
	}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		name := fmt.Sprintf("record-%s-seed%d-trace%v.json", wl.name, seed, traced)
		_ = os.WriteFile(filepath.Join(dir, name), b, 0o644) // the record also goes to stderr
	}
	return rec, string(line), nil
}

// compareSeen checks that, for every stream, one run's oracle
// observations are a prefix of the other's (runs of one seed execute the
// same operation sequence but may stop at different points).
func compareSeen(a, b map[string][]string) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a[n], b[n]
		k := min(len(x), len(y))
		for i := 0; i < k; i++ {
			if x[i] != y[i] {
				return fmt.Sprintf("stream %s observation %d: %q vs %q", n, i, x[i], y[i])
			}
		}
		if k == 0 && len(x)+len(y) > 0 {
			return fmt.Sprintf("stream %s: one run observed nothing", n)
		}
	}
	return "identical"
}

// printReport writes the human-readable table and the run record to
// standard error, so the last line of standard output stays the result.
func printReport(rec *runRecord) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v cpus=%d gomaxprocs=%d %s commit=%s emulated-latency=%s checkpoint-fs=%s host-steal=%.1f%%\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.EmulatedLatency, rec.CheckpointDirFS, rec.HostStealPct)
	for _, x := range rec.Metrics {
		pct := ""
		if x.Percentile > 0 {
			pct = fmt.Sprintf(" p%g", x.Percentile)
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %-6s %-6s n=%d%s\n", x.Name, x.Value, x.Unit, x.Better, x.Samples, pct)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", rec.Correct, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}
}

// runAll runs every workload untraced, one after another.
func runAll(seed int64, seconds int, dir string) int {
	all := result{Correct: true, Metrics: map[string]map[string]any{}}
	for _, wl := range workloads {
		rec, _, err := runWorkload(wl, seed, seconds, false, setupRuns, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printReport(rec)
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for _, x := range rec.Metrics {
			all.Metrics[wl.name+"."+x.Name] = map[string]any{"value": x.Value, "unit": x.Unit}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
