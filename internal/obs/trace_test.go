package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanRingWraparound finishes more spans than the ring holds and
// checks that only the newest survive, oldest first, while Total keeps
// counting evicted ones.
func TestSpanRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		s := tr.Start(fmt.Sprintf("op%d", i))
		s.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(recent))
	}
	for i, want := range []string{"op7", "op8", "op9", "op10"} {
		if recent[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s (oldest first)", i, recent[i].Name, want)
		}
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
}

func TestSpanRingPartiallyFull(t *testing.T) {
	tr := NewTracer(8)
	tr.Start("only").Finish()
	recent := tr.Recent()
	if len(recent) != 1 || recent[0].Name != "only" {
		t.Fatalf("recent = %v, want the single finished span", recent)
	}
}

func TestSpanParentAndAnnotations(t *testing.T) {
	tr := NewTracer(0)
	root := tr.Start("root")
	root.Annotate("k", "v")
	child := root.Child("child")
	if child.Parent != root.ID {
		t.Fatalf("child.Parent = %d, want %d", child.Parent, root.ID)
	}
	child.FinishErr(errors.New("boom"))
	root.Finish()
	root.Annotate("late", "ignored") // after Finish: no-op
	root.Finish()                    // double finish: no-op

	if got := tr.Total(); got != 2 {
		t.Fatalf("total = %d, want 2 (double finish must not retain twice)", got)
	}
	if child.Err != "boom" {
		t.Fatalf("child.Err = %q, want boom", child.Err)
	}
	if len(root.Attrs) != 1 || root.Attrs[0].Key != "k" {
		t.Fatalf("root.Attrs = %v, want only the pre-finish annotation", root.Attrs)
	}
	if root.Dur < 0 {
		t.Fatal("finished span should have a stamped duration")
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer should hand out nil spans")
	}
	s.Annotate("k", "v")
	s.Child("c").Finish()
	s.FinishErr(errors.New("e"))
	if tr.Recent() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestWriteJSON(t *testing.T) {
	tr := NewTracer(4)
	var empty bytes.Buffer
	if err := tr.WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	sp := tr.Start("op")
	sp.Annotate("dir", "/q")
	sp.Finish()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name  string `json:"name"`
		Attrs []Attr `json:"attrs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(spans) != 1 || spans[0].Name != "op" || len(spans[0].Attrs) != 1 {
		t.Fatalf("spans = %+v, want one annotated op", spans)
	}
}

// TestStartCtxMintsAndAdopts: a StartCtx with a bare context mints a
// fresh trace; one whose context already carries a span context joins
// it as a child.
func TestStartCtxMintsAndAdopts(t *testing.T) {
	tr := NewTracer(8)
	root, ctx := tr.StartCtx(context.Background(), "root")
	if root.Trace.IsZero() {
		t.Fatal("root span should mint a trace id")
	}
	child, _ := tr.StartCtx(ctx, "child")
	if child.Trace != root.Trace {
		t.Fatalf("child trace %s, want parent's %s", child.Trace, root.Trace)
	}
	if child.Parent != root.ID {
		t.Fatalf("child.Parent = %d, want %d", child.Parent, root.ID)
	}

	// A remote context (ContextWith) is adopted the same way.
	remote := SpanContext{Trace: NewTraceID(), Span: 77}
	adopted, _ := tr.StartCtx(ContextWith(context.Background(), remote), "server")
	if adopted.Trace != remote.Trace || adopted.Parent != remote.Span {
		t.Fatalf("adopted = {%s %d}, want remote context {%s %d}",
			adopted.Trace, adopted.Parent, remote.Trace, remote.Span)
	}

	// Nil tracer still forwards the inbound trace through the context.
	var nilTr *Tracer
	sp, ctx2 := nilTr.StartCtx(ContextWith(context.Background(), remote), "x")
	if sp != nil {
		t.Fatal("nil tracer should hand out nil spans")
	}
	if sc, ok := FromContext(ctx2); !ok || sc != remote {
		t.Fatal("nil tracer must not drop the propagated context")
	}
}

func TestByTrace(t *testing.T) {
	tr := NewTracer(16)
	a, ctx := tr.StartCtx(context.Background(), "a")
	b, _ := tr.StartCtx(ctx, "b")
	b.Finish()
	a.Finish()
	other := tr.Start("other")
	other.Finish()

	got := tr.ByTrace(a.Trace)
	if len(got) != 2 {
		t.Fatalf("ByTrace retained %d spans, want 2", len(got))
	}
	if got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("ByTrace order = [%s %s], want start order [a b]", got[0].Name, got[1].Name)
	}
	if tr.ByTrace(TraceID{}) != nil {
		t.Fatal("zero trace id should match nothing")
	}
}

func TestAnnotateCap(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("op")
	for i := 0; i < MaxSpanAttrs+5; i++ {
		sp.Annotate(fmt.Sprintf("k%d", i), "v")
	}
	sp.Finish()
	if len(sp.Attrs) != MaxSpanAttrs {
		t.Fatalf("attrs = %d, want cap %d", len(sp.Attrs), MaxSpanAttrs)
	}
	if sp.AttrsDropped != 5 {
		t.Fatalf("dropped = %d, want 5", sp.AttrsDropped)
	}
}

func TestSpanIDNonSequentialAcrossTracers(t *testing.T) {
	// Span IDs are salted per tracer so merged cross-process traces do
	// not collide; two fresh tracers must not hand out the same first ID.
	a := NewTracer(2).Start("a")
	b := NewTracer(2).Start("b")
	if a.ID == b.ID {
		t.Fatalf("two tracers minted the same span id %d", a.ID)
	}
	if a.ID == 0 || b.ID == 0 {
		t.Fatal("span id 0 is reserved for \"no parent\"")
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	parsed, err := ParseTraceID(id.String())
	if err != nil || parsed != id {
		t.Fatalf("ParseTraceID(%s) = %v, %v", id, parsed, err)
	}
	if _, err := ParseTraceID("nope"); err == nil {
		t.Fatal("short id should not parse")
	}
}

// TestWriteJSONSorted: the debug dump is ordered by start time even
// when spans finish out of order, and includes error strings.
func TestWriteJSONSorted(t *testing.T) {
	tr := NewTracer(8)
	first := tr.Start("first")
	time.Sleep(time.Millisecond)
	second := tr.Start("second")
	second.FinishErr(errors.New("late failure"))
	first.Finish() // finishes after second: retention order reversed
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name string `json:"name"`
		Err  string `json:"err"`
	}
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(spans) != 2 || spans[0].Name != "first" || spans[1].Name != "second" {
		t.Fatalf("spans = %+v, want start order [first second]", spans)
	}
	if spans[1].Err != "late failure" {
		t.Fatalf("err = %q, want the FinishErr string", spans[1].Err)
	}
}

// TestTracerRace finishes spans from several goroutines while a reader
// drains the ring; it exists to run under -race.
func TestTracerRace(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := tr.Start("op")
				s.Annotate("j", "x")
				s.Child("inner").Finish()
				s.Finish()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			for _, s := range tr.Recent() {
				_ = s.Name
				_ = s.Attrs
			}
		}
	}()
	wg.Wait()
	if got := tr.Total(); got != 4*200*2 {
		t.Fatalf("total = %d, want %d", got, 4*200*2)
	}
}
