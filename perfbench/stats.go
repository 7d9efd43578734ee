package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
)

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample such that at least p% of the samples are at or below it. It returns
// NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	// The small allowance keeps float error (99.9/100*10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates for a distribution's reported tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// tail picks the highest percentile of xs that has at least minBeyondTail
// samples beyond it and returns that percentile and its value. ok is false
// when no candidate qualifies (fewer than about twenty samples).
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minBeyondTail {
			return p, percentile(xs, p), true
		}
	}
	return 0, math.NaN(), false
}

// p99 returns the nearest-rank 99th percentile only when at least
// minBeyondTail samples lie beyond it.
func p99(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 || n-rank(n, 99) < minBeyondTail {
		return math.NaN(), false
	}
	return percentile(xs, 99), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// scrape is one parsed /metrics page.
type scrape map[string]*metrics.Family

// scrapeRegistry renders reg and parses it back with the strict
// exposition parser, so every delta is read exactly as an operator's
// scraper would read it.
func scrapeRegistry(reg *metrics.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return metrics.ParsePrometheus(&buf)
}

// counterDelta is how much a counter family, summed over all its label
// sets, grew between two scrapes. A family absent from a scrape counts as
// zero there (vectors render nothing until their first child exists).
func counterDelta(before, after scrape, name string) float64 {
	total := func(s scrape) float64 {
		if f, ok := s[name]; ok {
			return f.Sum()
		}
		return 0
	}
	return total(after) - total(before)
}

// histDelta is the change in one histogram family between two scrapes,
// merged over every label set except le.
type histDelta struct {
	bounds []float64 // ascending upper bounds, +Inf last
	counts []float64 // cumulative observation count per bound
	sum    float64
	count  float64
}

func histogramDelta(before, after scrape, name string) histDelta {
	byLE := make(map[float64]float64)
	var d histDelta
	add := func(s scrape, sign float64) {
		f, ok := s[name]
		if !ok {
			return
		}
		for _, smp := range f.Samples {
			switch {
			case strings.HasSuffix(smp.Name, "_bucket"):
				le, err := strconv.ParseFloat(smp.Labels["le"], 64)
				if err != nil {
					continue // ParsePrometheus already rejected malformed bounds
				}
				byLE[le] += sign * smp.Value
			case strings.HasSuffix(smp.Name, "_sum"):
				d.sum += sign * smp.Value
			case strings.HasSuffix(smp.Name, "_count"):
				d.count += sign * smp.Value
			}
		}
	}
	add(after, 1)
	add(before, -1)
	for le := range byLE {
		d.bounds = append(d.bounds, le)
	}
	sort.Float64s(d.bounds)
	for _, le := range d.bounds {
		d.counts = append(d.counts, byLE[le])
	}
	return d
}

// quantile estimates the q-quantile (0..1) of the observations in d the way
// Prometheus's histogram_quantile does: find the bucket holding the rank
// and interpolate linearly inside it. Observations in the +Inf bucket are
// reported at the highest finite bound. NaN when d is empty.
func (d histDelta) quantile(q float64) float64 {
	if d.count <= 0 || len(d.bounds) == 0 {
		return math.NaN()
	}
	target := q * d.count
	lower, below := 0.0, 0.0
	for i, le := range d.bounds {
		if d.counts[i] >= target {
			if math.IsInf(le, 1) {
				return lower
			}
			inBucket := d.counts[i] - below
			if inBucket <= 0 {
				return le
			}
			return lower + (le-lower)*(target-below)/inBucket
		}
		if !math.IsInf(le, 1) {
			lower = le
		}
		below = d.counts[i]
	}
	return lower
}

// interval is a closed time range.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other and stick out of the parent; only
// the union of their parts inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	var inside []interval
	for _, c := range children {
		if c, ok := clip(c, parent); ok {
			inside = append(inside, c)
		}
	}
	return total - covered(inside)
}

// covered is the length of the union of intervals.
func covered(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// clip returns the part of iv inside w, or false when they do not overlap.
func clip(iv, w interval) (interval, bool) {
	if iv.start.Before(w.start) {
		iv.start = w.start
	}
	if iv.end.After(w.end) {
		iv.end = w.end
	}
	return iv, iv.end.After(iv.start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
