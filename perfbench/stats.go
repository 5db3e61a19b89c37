package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Operation classes. Every timed call into the system under test falls
// in exactly one; the end-to-end latency metrics are per class.
const (
	clsRead       = iota // Stat, Open, ReadFile, ReadDir of a syntactic dir
	clsWrite             // Mkdir*, Create, OpenFile for write, WriteFile, Remove*, Rename
	clsSearch            // Search / SearchPage through the first page
	clsSemdir            // ReadDir of a semantic directory
	clsSsync             // SyncAll, or SyncPath over the wire
	clsReindex           // Reindex("/")
	clsSmkdir            // SemDir create, with evaluation and link materialisation
	clsCheckpoint        // SaveVolumeFile
	clsAndrew            // one whole Andrew round
	numClasses

	// clsNone marks an operation that runs, is traced and counts toward
	// attempted and failed, but is in no latency class: Lstat, the steps
	// of an Andrew round over the mount in serve, and srmdir.
	clsNone = -1
)

// samples holds one class's latencies in nanoseconds.
type samples []int64

// tailPercentile applies the reporting rule: the highest of p99, p90
// that has at least ten samples beyond it, and p50 below that.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(s []int64) []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported number with everything the run record keeps
// about it.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
	// Percentile is the percentile actually reported for latency
	// metrics (see tailPercentile); 0 for non-percentile metrics.
	Percentile float64 `json:"percentile,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// metricSet keeps metrics in insertion order.
type metricSet struct{ list []metric }

func (m *metricSet) add(x metric) { m.list = append(m.list, x) }

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// latency adds the p50 of s as name, scaled to unit.
func (m *metricSet) p50(name string, s samples, unit string) {
	sorted := sortedCopy(s)
	m.add(metric{Name: name, Value: scale(percentile(sorted, 50), unit), Unit: unit, Better: "lower", Samples: len(s), Percentile: 50})
}

// tail adds the rule-chosen tail percentile of s as name.
func (m *metricSet) tail(name string, s samples, unit string) {
	sorted := sortedCopy(s)
	p := tailPercentile(len(s))
	m.add(metric{Name: name, Value: scale(percentile(sorted, p), unit), Unit: unit, Better: "lower", Samples: len(s), Percentile: p})
}

// roundLatency adds, in microseconds, the median over groups of each
// group's p50 or, with tail, of each group's rule-chosen tail
// percentile (chosen for the smallest group, so all use the same one).
func (m *metricSet) roundLatency(name string, groups []samples, tail bool) {
	p, total, least := 50.0, 0, len(groups[0])
	for _, g := range groups {
		total += len(g)
		least = min(least, len(g))
	}
	if tail {
		p = tailPercentile(least)
	}
	per := make([]float64, len(groups))
	for i, g := range groups {
		per[i] = scale(percentile(sortedCopy(g), p), "us")
	}
	m.add(metric{Name: name, Value: medianFloat(per), Unit: "us", Better: "lower", Samples: total, Percentile: p,
		Note: fmt.Sprintf("median over %d Andrew rounds of each round's p%g", len(groups), p)})
}

func scale(ns int64, unit string) float64 {
	switch unit {
	case "us":
		return float64(ns) / float64(time.Microsecond)
	case "ms":
		return float64(ns) / float64(time.Millisecond)
	}
	return float64(ns)
}
