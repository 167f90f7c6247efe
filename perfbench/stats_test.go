package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{n: 10000, p: 99.9, beyond: 10},
		{n: 9999, p: 99, beyond: 99}, // p99.9 leaves only 9 beyond
		{n: 1200, p: 99, beyond: 12},
		{n: 1000, p: 99, beyond: 10},
		{n: 999, p: 95, beyond: 49}, // p99 leaves only 9 beyond
		{n: 100, p: 90, beyond: 10},
		{n: 20, p: 50, beyond: 10},
	} {
		got, ok := tail(seq(tc.n))
		if !ok || got.P != tc.p || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: tail = %+v ok=%v, want p%v with %d beyond", tc.n, got, ok, tc.p, tc.beyond)
			continue
		}
		// Nearest rank: the value at position ceil(p/100*n) of the
		// sorted samples 1..n is that position itself.
		if want := float64(tc.n - tc.beyond); got.Value != want {
			t.Errorf("n=%d: p%v = %v, want %v", tc.n, tc.p, got.Value, want)
		}
	}
	if got, ok := tail(seq(19)); ok {
		t.Errorf("n=19: tail = %+v, want none (even the median has 9 beyond)", got)
	}
}

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: ms(0), End: ms(100)},
		// Back-to-back children cover 10..30 and 30..50.
		{ID: 2, Parent: 1, Name: "stage.a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "stage.b", Start: ms(30), End: ms(50)},
		// A nested grandchild is its parent's time, not the run's.
		{ID: 4, Parent: 3, Name: "step", Start: ms(35), End: ms(45)},
		// Overlapping children (two clients) count once: 60..90.
		{ID: 5, Parent: 1, Name: "job", Start: ms(60), End: ms(80)},
		{ID: 6, Parent: 1, Name: "job", Start: ms(70), End: ms(90)},
	}
	want := map[int]time.Duration{1: ms(30), 2: ms(20), 3: ms(10), 4: ms(10), 5: ms(20), 6: ms(20)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}

	rows := layerTable(spans)
	if rows[0].Name != "job" || rows[0].Count != 2 || rows[0].Self != ms(40) || rows[0].Total != ms(40) {
		t.Errorf("top layer row = %+v, want job x2 with 40ms self", rows[0])
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(10), End: ms(20)},
		{ID: 2, Parent: 1, Name: "child", Start: ms(5), End: ms(15)},
	}
	if got := selfTimes(spans)[1]; got != ms(5) {
		t.Errorf("self = %v, want 5ms", got)
	}
}

func TestTracerNestsMainGoroutineSpans(t *testing.T) {
	tr := newTracer()
	exp := tr.push("exp.fig4")
	run := tr.push("run")
	tr.pop()
	tr.pop()
	open := tr.begin("job", exp, 1, "c1")
	spans := tr.closed()
	if len(spans) != 2 || spans[0].ID != exp || spans[1].ID != run || spans[1].Parent != exp {
		t.Fatalf("spans = %+v, want run nested in exp and the open job left out", spans)
	}
	tr.end(open)
	if got := tr.closed(); len(got) != 3 || got[2].Job != "c1" || got[2].Lane != 1 {
		t.Fatalf("spans = %+v, want the job span with its job ID and lane", got)
	}

	var off *tracer // tracing off: every call is a no-op
	off.end(off.push("x"))
	off.pop()
	off.add("n", 1)
}

func TestFailRatioCountsErrorsAndWrongOutputs(t *testing.T) {
	s := newRunState(1)
	s.checks["golden"] = func(out []byte) error {
		if string(out) != "right" {
			return errors.New("mismatch")
		}
		return nil
	}
	s.op("golden", []byte("right"), nil)
	s.op("golden", []byte("wrong"), nil)            // fails its golden check
	s.op("repeat", []byte("a"), nil)                // first output becomes the reference
	s.op("repeat", []byte("a"), nil)                // equal: passes
	s.op("repeat", []byte("b"), nil)                // differs from the first: fails
	s.op("io", nil, errors.New("connection reset")) // an error fails
	if s.ops.Attempted != 6 || s.ops.Failed != 3 {
		t.Fatalf("tally = %+v, want 6 attempted, 3 failed", s.ops)
	}
	if got := s.ops.ratio(); got != 0.5 {
		t.Errorf("fail ratio = %v, want 0.5", got)
	}
	if len(s.errs) != 3 {
		t.Errorf("errs = %q, want 3 messages", s.errs)
	}
	if got := (tally{}).ratio(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
}
