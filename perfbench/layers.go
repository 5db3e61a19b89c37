package main

import (
	"sort"
	"strings"
)

// perLayer is every per-layer metric a traced run's result line
// carries, in order, with its unit and direction. The result line must
// name each of them on every workload, so a metric whose layer the
// workload does not exercise reads 0 there and the run record's note
// says the layer was not exercised. serve.rejects and
// remotefs.rpc_errors read 0 on every correct run (a rejected or failed
// request counts in failed), so they are kept to the run record.
var perLayer = []struct{ name, unit, better string }{
	{"wire.syscw_per_op", "count", "lower"},
	{"wire.syscr_per_op", "count", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"remotefs.self_us", "us", "lower"},
	{"serve.admit_wait_us.p50", "us", "lower"},
	{"serve.admit_wait_us.p99", "us", "lower"},
	{"serve.exec_us", "us", "lower"},
	{"hac.self_us.read", "us", "lower"},
	{"hac.self_us.write", "us", "lower"},
	{"hac.substrate_calls_per_op", "count", "lower"},
	{"hac.attr_hit_ratio", "ratio", "higher"},
	{"hac.sync_phase_us.scope", "us", "lower"},
	{"hac.sync_phase_us.eval", "us", "lower"},
	{"hac.sync_phase_us.commit", "us", "lower"},
	{"hac.sync_phase_us.repair", "us", "lower"},
	{"hac.semdir_evals_per_ssync", "count", "lower"},
	{"hac.links_changed_per_ssync", "count", "lower"},
	{"plan.parse_us", "us", "lower"},
	{"plan.eval_us", "us", "lower"},
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"plan.postings_skipped_per_search", "count", "higher"},
	{"plan.matches_per_search", "count", "lower"},
	{"index.reindex_examined_per_changed", "count", "lower"},
	{"index.segments", "count", "lower"},
	{"index.merges", "count", "lower"},
	{"index.live_ratio", "ratio", "higher"},
	{"index.postings_mb", "MB", "lower"},
	{"cas.self_us_per_op", "us", "lower"},
	{"cas.dedup_ratio", "ratio", "higher"},
	{"cas.unique_mb", "MB", "lower"},
	{"vfs.self_us_per_op", "us", "lower"},
	{"persist.checkpoint_mb", "MB", "lower"},
	{"persist.write_amp", "ratio", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.cpu_ms_per_kop", "ms", "lower"},
	{"proc.ctxsw_per_op", "count", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// Operations by class, as span op names, for the hac self-time split.
var (
	readOps  = map[string]bool{"Stat": true, "Lstat": true, "Open": true, "ReadFile": true, "ReadDir": true, "Readlink": true}
	writeOps = map[string]bool{"Mkdir": true, "MkdirAll": true, "Create": true, "OpenFile": true, "WriteFile": true,
		"Remove": true, "RemoveAll": true, "Rename": true, "Symlink": true}
)

// layerOf splits a span name into its layer and operation: "hac.Stat",
// "serve.exec.Stat", "cas.Lstat", "rpc.ReadFile".
func layerOf(name string) (layer, op string) {
	if rest, ok := strings.CutPrefix(name, "serve.exec."); ok {
		return "serve.exec", rest
	}
	layer, op, _ = strings.Cut(name, ".")
	return layer, op
}

func isSubstrate(layer string) bool { return layer == "cas" || layer == "vfs" }

// isHAC reports whether spans of layer carry HAC's self time: the hac.FS call
// itself, or in the serve workload the volume call (hac plus quota).
func isHAC(layer string) bool { return layer == "hac" || layer == "serve.exec" }

// spanLayers adds the metrics computed from the traced phase's spans.
func spanLayers(m *metricSet, p *phase) {
	self := selfTimes(p.spans)
	byID := make(map[uint64]*span, len(p.spans))
	for i := range p.spans {
		byID[p.spans[i].ID] = &p.spans[i]
	}
	hasExec := make(map[uint64]bool)
	var hacRead, hacWrite, rpcSelf samples
	var hacCalls, subUnderHAC int
	var subTime = map[string]int64{}
	for _, s := range p.spans {
		layer, op := layerOf(s.Name)
		if layer == "serve.exec" && s.Parent != 0 {
			hasExec[s.Parent] = true
		}
		switch {
		case isHAC(layer):
			hacCalls++
			if readOps[op] {
				hacRead = append(hacRead, self[s.ID])
			} else if writeOps[op] {
				hacWrite = append(hacWrite, self[s.ID])
			}
		case isSubstrate(layer):
			subTime[layer] += s.End - s.Start
			if par, ok := byID[s.Parent]; ok {
				if pl, _ := layerOf(par.Name); isHAC(pl) {
					subUnderHAC++
				}
			}
		}
	}
	for _, s := range p.spans {
		if layer, _ := layerOf(s.Name); layer == "rpc" && hasExec[s.ID] {
			rpcSelf = append(rpcSelf, self[s.ID])
		}
	}
	addP50 := func(name string, s samples, note string) {
		if len(s) == 0 {
			return
		}
		m.add(metric{Name: name, Value: scale(percentile(sortedCopy(s), 50), "us"), Unit: "us", Better: "lower",
			Samples: len(s), Percentile: 50, Note: note})
	}
	addP50("hac.self_us.read", hacRead, "hac call minus substrate spans (serve: volume call, hac plus quota)")
	addP50("hac.self_us.write", hacWrite, "hac call minus substrate spans (serve: volume call, hac plus quota)")
	addP50("remotefs.self_us", rpcSelf, "client call minus server admit and volume-call spans: wire, codec, mux")
	if hacCalls > 0 {
		m.add(metric{Name: "hac.substrate_calls_per_op", Value: float64(subUnderHAC) / float64(hacCalls), Unit: "count",
			Better: "lower", Samples: hacCalls, Note: "substrate calls made inside hac calls, per hac call"})
		for _, l := range []string{"cas", "vfs"} {
			if t, ok := subTime[l]; ok {
				m.add(metric{Name: l + ".self_us_per_op", Value: float64(t) / 1e3 / float64(hacCalls), Unit: "us",
					Better: "lower", Samples: hacCalls, Note: "substrate time per hac call (serve: per volume call)"})
			}
		}
	}
}

// delta returns after-before for every registry series whose key starts
// with name (summing across labels).
func delta(p *phase, name string) float64 {
	var d float64
	for k, v := range p.regAfter {
		if strings.HasPrefix(k, name) {
			d += v - p.regBefore[k]
		}
	}
	return d
}

func gauge(p *phase, name string) (float64, bool) {
	v, ok := p.regAfter[name]
	return v, ok
}

// registryLayers adds the metrics read from the program's own obs
// registry, differenced over the traced window.
func registryLayers(m *metricSet, p *phase) {
	ssyncs := len(p.merged(clsSsync)) + len(p.merged(clsReindex))
	searches := delta(p, "hac_search_seconds_count")
	if h, ms := delta(p, "hac_attr_cache_hits"), delta(p, "hac_attr_cache_misses"); h+ms > 0 {
		m.add(metric{Name: "hac.attr_hit_ratio", Value: h / (h + ms), Unit: "ratio", Better: "higher", Samples: int(h + ms)})
	}
	for _, ph := range []string{"scope", "eval", "commit", "repair"} {
		key := `hac_sync_phase_seconds{phase="` + ph + `"}`
		if n := delta(p, key+"_count"); n > 0 {
			m.add(metric{Name: "hac.sync_phase_us." + ph, Value: delta(p, key+"_sum") / n * 1e6, Unit: "us",
				Better: "lower", Samples: int(n), Note: "mean per evaluation pass"})
		}
	}
	if ssyncs > 0 {
		m.add(metric{Name: "hac.semdir_evals_per_ssync", Value: delta(p, "hac_semdir_evals_total") / float64(ssyncs),
			Unit: "count", Better: "lower", Samples: ssyncs, Note: "per SyncAll/SyncPath/Reindex"})
		links := delta(p, "hac_links_added_total") + delta(p, "hac_links_dropped_total") + delta(p, "hac_links_repaired_total")
		m.add(metric{Name: "hac.links_changed_per_ssync", Value: links / float64(ssyncs), Unit: "count", Better: "lower", Samples: ssyncs})
	}
	for _, x := range []struct{ name, series string }{{"plan.parse_us", "hac_query_parse_seconds"}, {"plan.eval_us", "hac_query_eval_seconds"}} {
		if n := delta(p, x.series+"_count"); n > 0 {
			m.add(metric{Name: x.name, Value: delta(p, x.series+"_sum") / n * 1e6, Unit: "us", Better: "lower", Samples: int(n), Note: "mean"})
		}
	}
	if h, ms := delta(p, "hac_plan_cache_hits_total"), delta(p, "hac_plan_cache_misses_total"); h+ms > 0 {
		m.add(metric{Name: "plan.cache_hit_ratio", Value: h / (h + ms), Unit: "ratio", Better: "higher", Samples: int(h + ms)})
	}
	if searches > 0 {
		m.add(metric{Name: "plan.postings_skipped_per_search", Value: delta(p, "hac_postings_skipped_total") / searches,
			Unit: "count", Better: "higher", Samples: int(searches)})
	}
	if v, ok := gauge(p, "index_segments"); ok {
		m.add(metric{Name: "index.segments", Value: v, Unit: "count", Better: "lower", Samples: 1, Note: "at end of run"})
	}
	if _, ok := p.regAfter["index_merges_total"]; ok {
		m.add(metric{Name: "index.merges", Value: delta(p, "index_merges_total"), Unit: "count", Better: "lower", Samples: 1})
	}
	if v, ok := gauge(p, "index_live_ratio"); ok {
		m.add(metric{Name: "index.live_ratio", Value: v, Unit: "ratio", Better: "higher", Samples: 1, Note: "at end of run"})
	}
	if v, ok := gauge(p, "index_postings_bytes"); ok {
		m.add(metric{Name: "index.postings_mb", Value: v / (1 << 20), Unit: "MB", Better: "lower", Samples: 1, Note: "at end of run"})
	}
	m.add(metric{Name: "serve.rejects", Value: delta(p, "serve_rejects_total"), Unit: "count", Better: "lower", Samples: 1})
	m.add(metric{Name: "remotefs.rpc_errors", Value: delta(p, "remotefs_rpc_errors_total") + delta(p, "remotefs_rpc_retries_total"),
		Unit: "count", Better: "lower", Samples: 1, Note: "client RPC errors plus retries"})
}

// procLayers adds the process-counter metrics and fills every per-layer
// metric the workload does not exercise with 0.
func procLayers(m *metricSet, p *phase) {
	spanLayers(m, p)
	registryLayers(m, p)
	ops := float64(max(p.allOps, 1))
	b, a := p.before, p.after
	if b.HaveIO && a.HaveIO {
		m.add(metric{Name: "wire.syscw_per_op", Value: float64(a.IO["syscw"]-b.IO["syscw"]) / ops, Unit: "count", Better: "lower", Samples: p.allOps, Note: "/proc/self/io, whole process"})
		m.add(metric{Name: "wire.syscr_per_op", Value: float64(a.IO["syscr"]-b.IO["syscr"]) / ops, Unit: "count", Better: "lower", Samples: p.allOps, Note: "/proc/self/io, whole process"})
		m.add(metric{Name: "wire.bytes_per_op", Value: float64(a.IO["rchar"]-b.IO["rchar"]+a.IO["wchar"]-b.IO["wchar"]) / ops, Unit: "B", Better: "lower", Samples: p.allOps, Note: "rchar+wchar"})
	}
	m.add(metric{Name: "proc.allocs_per_op", Value: float64(a.Mallocs-b.Mallocs) / ops, Unit: "count", Better: "lower", Samples: p.allOps})
	m.add(metric{Name: "proc.alloc_bytes_per_op", Value: float64(a.AllocB-b.AllocB) / ops, Unit: "B", Better: "lower", Samples: p.allOps})
	m.add(metric{Name: "proc.gc_pause_ms", Value: float64(a.PauseNs-b.PauseNs) / 1e6, Unit: "ms", Better: "lower", Samples: int(a.NumGC - b.NumGC), Note: "total over the window"})
	if b.HaveStat && a.HaveStat {
		m.add(metric{Name: "proc.cpu_ms_per_kop", Value: float64(a.CPUTicks-b.CPUTicks) * 1000 / clockTicks / (ops / 1000), Unit: "ms", Better: "lower", Samples: p.allOps, Note: "utime+stime, 10 ms ticks"})
	}
	if b.HaveCtxsw && a.HaveCtxsw {
		m.add(metric{Name: "proc.ctxsw_per_op", Value: float64(a.Ctxsw-b.Ctxsw) / ops, Unit: "count", Better: "lower", Samples: p.allOps})
	}
}

// fillLayers adds a zero for every per-layer metric not yet present and
// puts the set in perLayer order, the run record's extras last.
func fillLayers(m *metricSet, workload string) {
	rank := make(map[string]int, len(perLayer))
	last := len(perLayer)
	for i, x := range perLayer {
		rank[x.name] = i
		if _, ok := m.get(x.name); !ok {
			m.add(metric{Name: x.name, Unit: x.unit, Better: x.better, Note: "layer not exercised by " + workload})
		}
	}
	at := func(name string) int {
		if r, ok := rank[name]; ok {
			return r
		}
		return last
	}
	sort.SliceStable(m.list, func(i, j int) bool { return at(m.list[i].Name) < at(m.list[j].Name) })
}
