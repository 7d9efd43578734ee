package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// workload is one traffic mix and the store state it is measured in.
type workload struct {
	name string
	// mix builds the workload's fixed spec sample from the seed; every
	// submission is one of these, so each answer has a golden value.
	mix func(rng *rand.Rand) []api.RunSpec
	// durable puts the run store on a WAL with fsync on.
	durable bool
	// steady warms terminal history past the retention limit, so the
	// measured phases run with eviction active. A durable workload gets
	// that history from a WAL fixture it boots from (see writeFixture).
	steady bool
	// retain is the service's retention limit; 0 is dagd's default (4096).
	retain int
	// compactThreshold is the WAL's per-shard compaction threshold
	// (0 = dagd's default).
	compactThreshold int
	// openRPS is the open-loop offered rate; it sits below the knee.
	openRPS float64
	// backlog is how many runs the closed loop keeps outstanding.
	backlog int
	// setups is how many times an untraced run sets the service up; it
	// reports the median and measures on the last. Quick set-ups get more,
	// so their median holds still.
	setups int
	// readRatio, when non-zero, adds GET /v1/runs/{id} readers at
	// readRatio × openRPS and a GET /v1/runs?limit=100 page walk at
	// pagesPerSecond.
	readRatio float64
}

// pagesPerSecond is the rate of the readers' GET /v1/runs?limit=100 walk.
const pagesPerSecond = 4

// dagdRetain is dagd's default -retain.
const dagdRetain = 4096

// warmPastRetention is how many runs beyond the retention limit setup
// completes, so eviction has already been running before timing starts.
const warmPastRetention = 256

func (w workload) retention() int {
	if w.retain > 0 {
		return w.retain
	}
	return dagdRetain
}

// workloads is every workload the benchmark knows, by name.
var workloads = map[string]workload{
	// steady is the service's headline state: the BENCH_service.json mix
	// on the in-memory store with history at the retention limit. Runs are
	// small, so the server, dispatch and the run store take most of the
	// time.
	"steady": {
		name:    "steady",
		mix:     baselineMix,
		steady:  true,
		openRPS: 20,
		backlog: 8,
		setups:  3,
	},
	// durable_poll adds the fsync'd WAL and readers that poll runs and walk
	// the run list, so group commit, compaction and reader-vs-writer
	// contention on the run store are on the blocking path.
	"durable_poll": {
		name:      "durable_poll",
		mix:       baselineMix,
		durable:   true,
		steady:    true,
		openRPS:   20,
		backlog:   8,
		readRatio: 10,
		setups:    9,
		// dagd's default (4096 records per shard) compacts each shard once
		// per ~8000 runs, which no bounded run reaches; 256 makes every
		// shard compact within the measured phases.
		compactThreshold: 256,
	},
	// deep_compute runs big graphs on a fresh store that never reaches
	// retention: generation, the serial reference, the scheduler and
	// verification take almost all the time and eviction never runs.
	"deep_compute": {
		name:    "deep_compute",
		mix:     deepMix,
		openRPS: 12,
		backlog: 8,
		setups:  5,
	},
}

var mixWorkloads = []string{"pathcount", "hashchain", "longestpath"}

// baselineMix is the BENCH_service.json mix: every workload on a 50×4
// pipeline and on 200-node random graphs at p=0.02, work 50, with the two
// shapes in equal share.
func baselineMix(rng *rand.Rand) []api.RunSpec {
	var pool []api.RunSpec
	for _, wl := range mixWorkloads {
		for i := 0; i < 4; i++ {
			pool = append(pool,
				api.RunSpec{Shape: api.ShapePipeline, Stages: 50, Width: 4, Workload: wl, Work: 50},
				api.RunSpec{Shape: api.ShapeRandom, Nodes: 200, EdgeProb: 0.02, Seed: rng.Int63n(1 << 30), Workload: wl, Work: 50})
		}
	}
	return pool
}

// deepMix is five large shapes per workload, each about 10–60 ms on two
// cores. Sizes are chosen so that execution, not graph generation,
// dominates: random-graph generation is quadratic in the node count, so
// the random shape has 3000 nodes (about 45 ms to generate) with its work
// raised to 1000, and the chain has 100000 nodes at work 50. The seeded
// shapes get three seeds each, and the others three copies, so the pool's
// total work varies little from seed to seed.
func deepMix(rng *rand.Rand) []api.RunSpec {
	var pool []api.RunSpec
	for _, wl := range mixWorkloads {
		for i := 0; i < 3; i++ {
			pool = append(pool,
				api.RunSpec{Shape: api.ShapeRandom, Nodes: 3000, EdgeProb: 0.0033, Seed: rng.Int63n(1 << 30), Workload: wl, Work: 1000},
				api.RunSpec{Shape: api.ShapePipeline, Stages: 2000, Width: 8, Workload: wl, Work: 200},
				api.RunSpec{Shape: api.ShapeChain, Nodes: 100000, Workload: wl, Work: 50},
				api.RunSpec{Shape: api.ShapeDynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: rng.Int63n(1 << 30), Workload: wl, Work: 200},
				api.RunSpec{Shape: api.ShapePipeline, Stages: 500, Width: 4, Workload: wl, Work: 2000, ParallelWork: true})
		}
	}
	return pool
}

// plan is everything a run draws from its seed, fixed before any timing.
type plan struct {
	pool     []api.RunSpec
	specs    []run.Spec // pool in the service's own type, for the traced stack
	golden   []uint64   // sink_paths_mod64 of each pool spec via run.Execute
	results  []*run.Result
	warm     []int     // pool indices setup submits
	open     []arrival // open-loop schedule
	closed   []int     // closed-loop pool indices, taken in order
	gets     []arrival // reader GET schedule (spec unused)
	pages    []arrival // reader page-walk schedule (spec unused)
	readPick []int     // reader choice among recent run IDs, taken in order
}

// arrival is one open-loop request: when it is due, relative to the phase
// start, and which pool spec it submits.
type arrival struct {
	at   time.Duration
	spec int
}

// newPlan draws the workload's inputs from seed and computes the golden
// answer of every pool spec by executing it once outside the service.
func newPlan(ctx context.Context, w workload, seed int64, phase phases) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{pool: w.mix(rng)}
	byJSON := make(map[string]*run.Result)
	for i, s := range p.pool {
		var rs run.Spec
		buf, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(buf, &rs); err != nil {
			return nil, fmt.Errorf("pool spec %d: %w", i, err)
		}
		if err := rs.Validate(); err != nil {
			return nil, fmt.Errorf("pool spec %d: %w", i, err)
		}
		res, ok := byJSON[string(buf)]
		if !ok {
			if res, err = run.Execute(ctx, rs, 0); err != nil {
				return nil, fmt.Errorf("golden run of pool spec %d: %w", i, err)
			}
			byJSON[string(buf)] = res
		}
		p.specs = append(p.specs, rs)
		p.golden = append(p.golden, res.SinkPaths)
		p.results = append(p.results, res)
	}
	warmRuns := len(p.pool)
	if w.steady {
		warmRuns = w.retention() + warmPastRetention
	}
	p.warm = cycle(rng, len(p.pool), warmRuns)
	// Whole cycles of the pool, so every run's open-loop phase has the same
	// mix of specs.
	cycles := int(math.Round(w.openRPS * phase.open.Seconds() / float64(len(p.pool))))
	if cycles < 1 {
		cycles = 1
	}
	n := cycles * len(p.pool)
	p.open = schedule(rng, n, phase.open)
	for i, s := range cycle(rng, len(p.pool), n) {
		p.open[i].spec = s
	}
	// More than the closed loop can finish in its phase at any plausible
	// rate; it stops at the phase deadline.
	p.closed = cycle(rng, len(p.pool), 20000)
	if w.readRatio > 0 {
		// Readers run across both phases.
		both := phase.open + phase.closed
		p.gets = schedule(rng, int(w.readRatio*w.openRPS*both.Seconds()), both)
		p.pages = schedule(rng, int(pagesPerSecond*both.Seconds()), both)
		p.readPick = make([]int, len(p.gets))
		for i := range p.readPick {
			p.readPick[i] = rng.Intn(1 << 30)
		}
	}
	return p, nil
}

// cycle returns n pool indices made of back-to-back random permutations of
// the pool, so every spec gets the same share of any long stretch.
func cycle(rng *rand.Rand, poolLen, n int) []int {
	out := make([]int, 0, n+poolLen)
	for len(out) < n {
		out = append(out, rng.Perm(poolLen)...)
	}
	return out[:n]
}

// schedule returns n arrivals with exponential gaps (a Poisson process),
// rescaled so the last falls at the end of span: independent users at a
// fixed count per run, so the tail percentile chosen is the same on every
// seed.
func schedule(rng *rand.Rand, n int, span time.Duration) []arrival {
	if n <= 0 {
		return nil
	}
	out := make([]arrival, n)
	var t float64
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		t += gaps[i]
	}
	scale := float64(span) / t
	var at float64
	for i, g := range gaps {
		at += g * scale
		out[i].at = time.Duration(at)
	}
	return out
}
