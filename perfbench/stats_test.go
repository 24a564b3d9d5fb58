package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
	if got := median([]float64{3, 1, 2, 5, 4}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestTailRule(t *testing.T) {
	// 25 samples: rank 15 is the highest with 10 samples beyond it.
	tl := tailOf(seq(25))
	if !tl.RuleMet || tl.Value != 15 || tl.Beyond != 10 || tl.Samples != 25 || tl.Percentile != 60 {
		t.Errorf("tail of 25 = %+v, want value 15 at p60 with 10 beyond", tl)
	}
	// 1000 samples: p99.0 has exactly 10 beyond.
	tl = tailOf(seq(1000))
	if !tl.RuleMet || tl.Value != 990 || tl.Percentile != 99 || tl.Beyond != 10 {
		t.Errorf("tail of 1000 = %+v, want value 990 at p99", tl)
	}
	// 11 samples: only the smallest has 10 beyond.
	tl = tailOf(seq(11))
	if !tl.RuleMet || tl.Value != 1 || tl.Beyond != 10 {
		t.Errorf("tail of 11 = %+v, want value 1", tl)
	}
	// 10 samples: no percentile qualifies; the maximum is reported.
	tl = tailOf(seq(10))
	if tl.RuleMet || tl.Value != 10 || tl.Beyond != 0 || tl.Percentile != 100 {
		t.Errorf("tail of 10 = %+v, want the maximum with the rule unmet", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent's interval does not count.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if sum[0].Name != "op" || sum[0].SelfMS != 50e-6 || sum[0].TotalMS != 100e-6 {
		t.Errorf("summary = %+v, want op first with 5e-05 ms self of 1e-04 ms", sum)
	}
}

func TestRecorderSequence(t *testing.T) {
	rec := newRecorder()
	t0 := rec.t0
	op := rec.add(1, 0, "op", t0, t0.Add(10*time.Millisecond))
	rec.sequence(1, op, t0,
		namedDur{"x", 2 * time.Millisecond},
		namedDur{"skipped", 0},
		namedDur{"y", 3 * time.Millisecond})
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	y := spans[2]
	if y.Name != "y" || y.Parent != op || y.Start != int64(2*time.Millisecond) || y.End != int64(5*time.Millisecond) {
		t.Errorf("second child = %+v, want y over [2ms, 5ms] under the op", y)
	}
	if got := selfTimes(spans)[op]; got != int64(5*time.Millisecond) {
		t.Errorf("op self time = %d, want 5ms", got)
	}
	var nilRec *recorder
	if id := nilRec.add(1, 0, "op", t0, t0); id != 0 {
		t.Errorf("nil recorder returned span ID %d", id)
	}
}
