package main

import (
	"math"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{10000, 99.9, true}, // rank 9990, 10 beyond
		{9999, 99, true},    // p99.9 would leave 9 beyond
		{1000, 99, true},
		{999, 98, true}, // p99 is rank 990, 9 beyond
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		pct, v, ok := tail(ramp(c.n))
		if ok != c.ok || pct != c.wantPct {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		if ok && v != float64(rank(c.n, pct)) {
			t.Errorf("tail(n=%d) value %v, want rank %d", c.n, v, rank(c.n, pct))
		}
		if ok && c.n-rank(c.n, pct) < minBeyondTail {
			t.Errorf("tail(n=%d) p%v leaves fewer than %d beyond", c.n, pct, minBeyondTail)
		}
	}
	if _, ok := p99(ramp(1000)); !ok {
		t.Error("p99 of 1000 samples has 10 beyond and should be reported")
	}
	if _, ok := p99(ramp(999)); ok {
		t.Error("p99 of 999 samples has 9 beyond and should not be reported")
	}
}

func TestPrometheusDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.CounterVec("x_total", "x", "shard")
	lazy := reg.CounterVec("lazy_total", "a vector with no child at the first scrape", "shard")
	h := reg.HistogramVec("lat_seconds", "lat", []float64{0.001, 0.01, 0.1}, "shard")
	c.With("a").Add(5)
	h.With("a").Observe(0.0005)

	before, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	c.With("a").Add(2)
	c.With("b").Add(3)
	lazy.With("a").Add(4)
	for _, v := range []float64{0.005, 0.005, 0.05, 0.05} {
		h.With("a").Observe(v)
	}
	h.With("b").Observe(0.5)
	h.With("b").Observe(0.005)
	after, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}

	if got := counterDelta(before, after, "x_total"); got != 5 {
		t.Errorf("counter delta over two label sets = %v, want 5", got)
	}
	if got := counterDelta(before, after, "lazy_total"); got != 4 {
		t.Errorf("counter delta from an absent family = %v, want 4", got)
	}
	if got := counterDelta(before, after, "missing_total"); got != 0 {
		t.Errorf("counter delta of a missing family = %v, want 0", got)
	}

	d := histogramDelta(before, after, "lat_seconds")
	if d.count != 6 {
		t.Fatalf("histogram delta count = %v, want 6", d.count)
	}
	if want := 0.005*3 + 0.05*2 + 0.5; math.Abs(d.sum-want) > 1e-12 {
		t.Errorf("histogram delta sum = %v, want %v", d.sum, want)
	}
	wantCounts := []float64{0, 3, 5, 6} // le 0.001, 0.01, 0.1, +Inf; the 0.0005 before is gone
	if len(d.counts) != len(wantCounts) {
		t.Fatalf("histogram delta buckets = %v, want %v", d.counts, wantCounts)
	}
	for i, w := range wantCounts {
		if d.counts[i] != w {
			t.Errorf("bucket %v: %v, want %v", d.bounds[i], d.counts[i], w)
		}
	}
	// The median (rank 3 of 6) is the top of the (0.001, 0.01] bucket.
	if got := d.quantile(0.5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	// Rank 4 of 6 is halfway into the (0.01, 0.1] bucket.
	if got := d.quantile(4.0 / 6); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("rank-4 quantile = %v, want 0.055", got)
	}
	// Observations past the last finite bound report that bound.
	if got := d.quantile(1); got != 0.1 {
		t.Errorf("p100 = %v, want 0.1", got)
	}
	if !math.IsNaN(histogramDelta(after, after, "lat_seconds").quantile(0.5)) {
		t.Error("quantile of an empty delta should be NaN")
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	parent := interval{at(0), at(100)}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []interval{{at(10), at(30)}}, 80 * time.Millisecond},
		{"overlapping children count once", []interval{{at(10), at(30)}, {at(20), at(40)}}, 70 * time.Millisecond},
		{"children clipped to the parent", []interval{{at(-10), at(5)}, {at(90), at(120)}}, 85 * time.Millisecond},
		{"child covering the parent", []interval{{at(-1), at(101)}}, 0},
		{"child outside the parent", []interval{{at(200), at(300)}}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAnalyzeDerivesLayerTimes(t *testing.T) {
	res := &run.Result{SerialMillis: 3, ParallelMillis: 2, Speedup: 1.5}
	spans := []span{
		{Name: spanSubmit, Run: "r1", Start: at(0), End: at(10)},
		{Name: spanCreate, Run: "r1", Start: at(2), End: at(8)},
		{Name: spanAwait, Run: "r1", Start: at(11), End: at(42)},
		{Name: spanDispatched, Run: "r1", Start: at(15), End: at(15)},
		{Name: spanBegin, Run: "r1", Start: at(16), End: at(18)},
		{Name: spanFinish, Run: "r1", Start: at(28), End: at(40), Result: res},
		{Name: spanEvict, Start: at(41), End: at(45), N: 1},
	}
	ls := analyze(spans, interval{at(0), at(50)})
	check := func(name string, got []float64, want float64) {
		t.Helper()
		if len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	check("submit self (µs)", ls.submitSelf, 4000)
	check("queue wait (ms)", ls.queueWait, 7)
	check("execute (ms)", ls.execute, 10)
	check("other (ms)", ls.other, 5)
	check("await wake (µs)", ls.awaitWake, 14000)
	if ls.dispatchBusy != 25*time.Millisecond || ls.evictBusy != 4*time.Millisecond {
		t.Errorf("busy: dispatch %v evict %v, want 25ms and 4ms", ls.dispatchBusy, ls.evictBusy)
	}
	if ls.runs != 1 || ls.evicted != 1 {
		t.Errorf("runs %d evicted %d, want 1 and 1", ls.runs, ls.evicted)
	}
}
