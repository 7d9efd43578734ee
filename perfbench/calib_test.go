package main

import (
	"math"
	"testing"
	"time"
)

// TestSlowdownMediansTheInterval checks that the slowdown over an interval
// is the median of the samples inside it over the nominal time, and that
// an interval with too few samples takes the ones nearest its middle.
func TestSlowdownMediansTheInterval(t *testing.T) {
	p := &probe{}
	for i := 0; i < 40; i++ {
		v := refNominalMS
		if i >= 20 {
			v = 2 * refNominalMS // the host got twice as slow halfway
		}
		p.samples = append(p.samples, probeSample{at: at(10 * i), ms: v})
	}
	for _, c := range []struct {
		name     string
		from, to int // ms
		want     float64
	}{
		{"first half", 0, 200, 1},
		{"second half", 200, 400, 2},
		{"mostly first half", 0, 290, 1},
		{"too few inside: nearest to the middle", 390, 391, 2},
		{"none inside: nearest to the middle", 95, 96, 1},
	} {
		if got := p.slowdown(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: slowdown = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestProbeSamplesUntilStopped runs the real probe briefly: it samples on
// its period, each sample costs CPU time, and stop ends it.
func TestProbeSamplesUntilStopped(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * probePeriod)
	p.stop()
	p.mu.Lock()
	n := len(p.samples)
	p.mu.Unlock()
	if n < 2 {
		t.Fatalf("%d samples in %v, want several", n, 5*probePeriod)
	}
	for _, s := range p.samples {
		if s.ms <= 0 {
			t.Fatalf("sample took %v ms of CPU, want > 0", s.ms)
		}
	}
	if got := p.slowdown(time.Now().Add(-time.Hour), time.Now()); got <= 0 || math.IsNaN(got) {
		t.Fatalf("slowdown = %v", got)
	}
}
