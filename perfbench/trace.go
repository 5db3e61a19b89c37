package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call across a layer boundary: the benchmark's operation, the
// serving layer's admission and volume call, a hac.FS call, or a
// substrate call. Times are nanoseconds since the tracer started.
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      int64
}

// lane is one closed-loop request stream. Because a stream has at most
// one request in flight, the innermost open span of its request is a
// single value even when the request crosses goroutines (client to
// server): any span begun on the lane is that span's child.
//
// Tracing samples whole requests: a lane traces about one request in
// sampleEvery its stream sends (see stream.do), with all of that
// request's spans.
type lane struct {
	top     atomic.Uint64 // innermost open span
	req     atomic.Uint64 // request ID of the benchmark operation in flight
	sampled atomic.Bool   // the request in flight is traced
}

// maxSpans bounds the spans a traced run keeps in memory. Once it is
// reached tracing stops; the per-layer numbers come from the spans kept.
const maxSpans = 400_000

// tracer records spans in memory. A nil *tracer records nothing, which
// is how the untraced run measures.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	on   atomic.Bool

	mu    sync.Mutex
	spans []span

	// solo is the lane substrate spans without a lane of their own are
	// charged to: set while a single stream runs alone on a substrate
	// that several streams share (the cba probe). Otherwise such calls
	// are not traced.
	solo atomic.Pointer[lane]
}

// newTracer returns a tracer that records nothing until it is switched
// on, so set-up and warm-up leave no spans.
func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = make([]span, 0, 1<<16)
	return t
}

// active is the span handle a layer holds between begin and end.
type active struct {
	id, parent, req uint64
	start           int64
	ln              *lane
}

// begin opens a span on ln if ln's request in flight is sampled. A nil
// ln (a call on a substrate several streams share, outside a solo phase)
// is not traced. push makes the span the lane's innermost,
// so later spans on the lane nest under it until end.
func (t *tracer) begin(ln *lane, push bool) active {
	if t == nil || !t.on.Load() || ln == nil || !ln.sampled.Load() {
		return active{}
	}
	a := active{id: t.next.Add(1), start: int64(time.Since(t.t0)), ln: ln, req: ln.req.Load()}
	if push {
		a.parent = ln.top.Swap(a.id)
	} else {
		a.parent = ln.top.Load()
	}
	return a
}

// beginRequest opens a benchmark-operation span, starting a new request
// on ln unless one is already open there.
func (t *tracer) beginRequest(ln *lane) active {
	if t == nil || !t.on.Load() {
		return active{}
	}
	if ln.top.Load() == 0 {
		ln.req.Store(t.next.Add(1))
	}
	return t.begin(ln, true)
}

// end closes a and records it as layer.op; pushed says whether begin
// pushed it onto its lane.
func (t *tracer) end(a active, layer, op string, pushed bool) {
	if a.id == 0 {
		return
	}
	name := layer + "." + op
	if pushed {
		a.ln.top.Store(a.parent)
	}
	s := span{ID: a.id, Parent: a.parent, Req: a.req, Name: name, Start: a.start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.on.Store(false)
	}
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// request fanned out to workers) count once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes spans as tab-separated lines: id, parent, request,
// name, start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		w.WriteString(strconv.FormatUint(s.ID, 10) + "\t" + strconv.FormatUint(s.Parent, 10) + "\t" +
			strconv.FormatUint(s.Req, 10) + "\t" + s.Name + "\t" +
			strconv.FormatInt(s.Start, 10) + "\t" + strconv.FormatInt(s.End, 10) + "\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
