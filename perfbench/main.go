// Command perfbench measures dagd's own stack in steady state, in one
// process: core.NewService with dagd's default options, served by
// server.New(svc).Handler() on a loopback listener and driven through
// pkg/client. It starts no child process.
//
// Each run warms the service to its measured state, then runs an open-loop
// phase at a fixed offered rate and a closed-loop saturation phase, checks
// every answer against a golden value computed with run.Execute, and prints
// a full report line followed by one JSON result line. With --trace 1 it
// also builds the same stack from the layers' constructors around a timed
// run.Store and reports per-layer figures derived from the spans it records.
//
//	go run . --workload steady --seed 1 --seconds 10 --trace 0
//
// See README.md for the metrics, workloads and known gaps.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// runLimit bounds a whole run, cleanup included, well inside the three
// minutes a run may take.
const runLimit = 150 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload: steady, durable_poll or deep_compute")
		seed     = flag.Int64("seed", 1, "seed for the spec sample and every schedule")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run, split between the phases")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		tmpRoot  = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for per-run scratch data (WAL dirs, request log), removed at exit")
		spansDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload steady|durable_poll|deep_compute, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	cfg := config{
		w:        w,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   w.setups,
		tmpRoot:  *tmpRoot,
		spansDir: *spansDir,
	}
	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		stop()
		os.Exit(1)
	}
	report, err := json.Marshal(map[string]any{"report": res.report})
	if err == nil {
		fmt.Println(string(report))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong results:", res.report["first_problem"])
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	w        workload
	seed     int64
	measure  time.Duration
	trace    bool
	setups   int
	tmpRoot  string
	spansDir string // "" writes no spans
	probe    *probe // host speed, set by runBench
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	report    map[string]any
}

// runBench runs one configuration. Every path out of it, error or not,
// has stopped the stacks it started and removed its scratch directory.
func runBench(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.tmpRoot, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	logFile, err := os.Create(filepath.Join(runDir, "requests.log"))
	if err != nil {
		return nil, err
	}
	log.SetOutput(logFile)
	defer func() {
		log.SetOutput(os.Stderr)
		logFile.Close()
	}()
	if cfg.probe, err = startProbe(); err != nil {
		return nil, err
	}
	defer cfg.probe.stop()

	// A traced run makes two passes over the plan, so each gets half.
	phase := splitPhases(cfg.measure)
	if cfg.trace {
		phase = splitPhases(cfg.measure / 2)
	}
	p, err := newPlan(ctx, cfg.w, cfg.seed, phase)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}, report: map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "trace": cfg.trace,
		"open_s": phase.open.Seconds(), "closed_s": phase.closed.Seconds(), "pool_specs": len(p.pool),
	}}
	out := &emitter{res: res}
	if !cfg.trace {
		u, err := untracedPass(ctx, cfg, p, runDir, cfg.setups, phase)
		if err != nil {
			return nil, err
		}
		u.endToEnd(out, cfg.w, true)
		u.addTotals(res)
	} else {
		u, err := untracedPass(ctx, cfg, p, runDir, 1, phase)
		if err != nil {
			return nil, err
		}
		t, err := tracedPass(ctx, cfg, p, runDir, phase)
		if err != nil {
			return nil, err
		}
		u.endToEnd(out, cfg.w, false)
		perLayer(out, cfg.w, u, t)
		u.addTotals(res)
		t.addTotals(res)
	}
	if out.err != nil {
		return nil, out.err
	}
	return res, nil
}

// emitter files metrics into the result: JSON metrics must be finite
// numbers; report-only figures may be missing (null).
type emitter struct {
	res *result
	err error
}

// metric adds a JSON metric (also shown in the report).
func (e *emitter) metric(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("metric %s has no value (no samples)", name)
		}
		return
	}
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
	e.report(name, unit, v)
}

// report adds a report-only figure.
func (e *emitter) report(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.res.report[name] = nil
		return
	}
	e.res.report[name] = metric{Value: v, Unit: unit}
}

// note adds a report-only value that is not a measurement.
func (e *emitter) note(name string, v any) { e.res.report[name] = v }

// passResult is one pass over the plan: setup, the measured phases, and
// the evidence that they ran in the intended state.
type passResult struct {
	setupS     []float64 // scaled to the nominal host speed
	rawSetupS  []float64
	slowdown   float64 // host slowdown over the saturation phase
	open       openResult
	closed     closedResult
	reads      readResult
	heapMB     float64
	tally      *tally
	posts      []float64
	conns      int64 // peak open client connections
	dispatches int
	window     interval
	before     scrape
	after      scrape
	steals     int64
	nodes      int64
	spans      []span
	evidence   map[string]any
}

// noteSetup records a setup that started at t0 and has just ended.
func (p *passResult) noteSetup(pr *probe, t0 time.Time) {
	end := time.Now()
	raw := end.Sub(t0).Seconds()
	p.rawSetupS = append(p.rawSetupS, raw)
	p.setupS = append(p.setupS, raw/pr.slowdown(t0, end))
}

func (p *passResult) addTotals(res *result) {
	t := p.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	res.Attempted += t.submitted + t.reads
	res.Failed += t.rejected + t.submitErrs + t.failedRuns + t.mismatches + t.neverTerminal + t.readErrs
	res.Correct = res.Correct && t.mismatches == 0 && t.failedRuns == 0 && t.neverTerminal == 0
	if t.firstProblem != "" && res.report["first_problem"] == nil {
		res.report["first_problem"] = t.firstProblem
	}
}

// runsFinished is how many submissions reached a terminal state.
func (t *tally) runsFinished() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.submitted - t.rejected - t.submitErrs - t.neverTerminal
}

// phases is how one pass splits its measured time.
type phases struct{ open, closed time.Duration }

// splitPhases gives the saturation phase three quarters of the measured
// time: its throughput and CPU cost are the gated figures, while the
// open-loop latencies are report-only.
func splitPhases(total time.Duration) phases {
	return phases{open: total / 4, closed: total - total/4}
}

// measurePhases runs the open-loop phase, then the saturation phase, with
// readers alongside both when the workload has them.
func measurePhases(ctx context.Context, l *loader, w workload, phase phases, probe *probe, pr *passResult) {
	if w.durable {
		syscall.Sync() // settle setup's file writes before fsyncs are timed
	}
	rctx, stopReaders := context.WithCancel(ctx)
	var rwg sync.WaitGroup
	if w.readRatio > 0 {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			pr.reads = l.readers(rctx)
		}()
	}
	steal0, total0, ok0 := hostCPU()
	pr.window.start = time.Now()
	pr.open = l.openLoop(ctx)
	closedStart := time.Now()
	pr.closed = l.closedLoop(ctx, w.backlog, phase.closed)
	pr.slowdown = probe.slowdown(closedStart, time.Now())
	pr.window.end = time.Now()
	if steal1, total1, ok1 := hostCPU(); ok0 && ok1 && total1 > total0 {
		pr.evidence["host_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	stopReaders()
	rwg.Wait()
}

// untracedPass sets the HTTP stack up `setups` times, reporting each setup
// time, and measures on the last one.
func untracedPass(ctx context.Context, cfg config, p *plan, runDir string, setups int, phase phases) (*passResult, error) {
	w := cfg.w
	pr := &passResult{evidence: map[string]any{}}
	fixture, err := prepareFixture(w, p, runDir)
	if err != nil {
		return nil, err
	}
	var s *service
	for k := 0; k < setups; k++ {
		dir := dataDir(runDir, k)
		if fixture != "" {
			if err := copyTree(fixture, dir); err != nil {
				return nil, err
			}
			// Flush the copy so setup and the measured fsyncs do not pay
			// for its writeback.
			syscall.Sync()
		}
		t0 := time.Now()
		if s, err = startService(w, dir, p.pool); err != nil {
			return nil, err
		}
		if fixture == "" {
			err = newLoader(directTarget{httpTarget{s}, p.specs}, p, w).warm(ctx, w.backlog)
		}
		if err == nil && w.steady {
			err = waitTerminal(ctx, s.terminal, w.retention())
		}
		pr.noteSetup(cfg.probe, t0)
		if err != nil || k < setups-1 {
			if cerr := s.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", k+1, err)
			}
			runtime.GC()
		}
	}
	defer func() {
		if cerr := s.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing service:", cerr)
		}
	}()
	before := s.terminal()
	if pr.before, err = scrapeRegistry(s.reg); err != nil {
		return nil, err
	}
	l := newLoader(httpTarget{s}, p, w)
	measurePhases(ctx, l, w, phase, cfg.probe, pr)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr.tally, pr.posts, pr.conns = &l.tally, l.posts, s.conns.peak.Load()
	if pr.after, err = scrapeRegistry(s.reg); err != nil {
		return nil, err
	}
	if err := checkState(ctx, w, before, l.tally.runsFinished(), s.terminal, pr); err != nil {
		return nil, err
	}
	// Eviction runs on the dispatcher after a run is already terminal, and
	// it holds a copy of the history while it does; let the last ones end.
	time.Sleep(100 * time.Millisecond)
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only the service's own state stays.
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	pr.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return pr, nil
}

// checkState proves the measured phases ran in the workload's intended
// state: at the retention limit with eviction running (and, on the WAL, at
// least one compaction), or below the limit for a fresh-store workload.
func checkState(ctx context.Context, w workload, before, finished int, terminal func() int, pr *passResult) error {
	pr.evidence["terminal_before"] = before
	compactions := counterDelta(pr.before, pr.after, "dagd_wal_compactions_total")
	if !w.steady {
		after := terminal()
		pr.evidence["terminal_after"] = after
		if after >= w.retention() {
			return fmt.Errorf("%s reached the retention limit (%d terminal runs); it must stay below it", w.name, after)
		}
		return nil
	}
	if before != w.retention() {
		return fmt.Errorf("terminal history before measuring is %d, want the retention limit %d", before, w.retention())
	}
	if err := waitTerminal(ctx, terminal, w.retention()); err != nil {
		return fmt.Errorf("after measuring: %w", err)
	}
	evicted := before + finished - w.retention()
	pr.evidence["terminal_after"] = w.retention()
	pr.evidence["evicted"] = evicted
	if evicted <= 0 {
		return errors.New("no run was evicted during the measured phases")
	}
	if w.durable {
		pr.evidence["compactions"] = compactions
		if compactions <= 0 {
			return errors.New("no WAL compaction ran during the measured phases")
		}
	}
	return nil
}

// tracedPass builds the stack from the layers' constructors around a timed
// store, warms it like the untraced pass, and records spans over the same
// phases.
func tracedPass(ctx context.Context, cfg config, p *plan, runDir string, phase phases) (*passResult, error) {
	w := cfg.w
	pr := &passResult{evidence: map[string]any{}}
	fixture, err := prepareFixture(w, p, runDir)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(runDir, "data-traced")
	if fixture != "" {
		if err := copyTree(fixture, dir); err != nil {
			return nil, err
		}
		syscall.Sync()
	}
	t0 := time.Now()
	t, err := startTraced(w, dir, p.specs)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := t.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing traced stack:", cerr)
		}
	}()
	if fixture == "" {
		if err := newLoader(t, p, w).warm(ctx, w.backlog); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
	}
	if w.steady {
		if err := waitTerminal(ctx, t.terminal, w.retention()); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
	}
	pr.noteSetup(cfg.probe, t0)
	pr.dispatches = t.disp.Dispatchers()
	before := t.terminal()
	if pr.before, err = scrapeRegistry(t.reg); err != nil {
		return nil, err
	}
	steals0, nodes0 := sched.Steals(), sched.NodesExecuted()
	l := newLoader(t, p, w)
	t.rec.on.Store(true)
	measurePhases(ctx, l, w, phase, cfg.probe, pr)
	t.rec.on.Store(false)
	pr.steals, pr.nodes = sched.Steals()-steals0, sched.NodesExecuted()-nodes0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr.tally, pr.posts = &l.tally, l.posts
	if pr.after, err = scrapeRegistry(t.reg); err != nil {
		return nil, err
	}
	t.rec.mu.Lock()
	pr.spans = t.rec.spans
	t.rec.mu.Unlock()
	if err := checkState(ctx, w, before, l.tally.runsFinished(), t.terminal, pr); err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return nil, err
		}
		all := append(append([]span(nil), pr.spans...), analyze(pr.spans, pr.window).derived...)
		sort.Slice(all, func(i, j int) bool { return all[i].Start.Before(all[j].Start) })
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, all); err != nil {
			return nil, err
		}
		pr.evidence["spans_file"] = path
	}
	return pr, nil
}

// prepareFixture writes the durable workload's WAL fixture under runDir
// once and returns its path; "" for workloads that warm through the service.
func prepareFixture(w workload, p *plan, runDir string) (string, error) {
	if !w.durable {
		return "", nil
	}
	dir := filepath.Join(runDir, "fixture")
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := writeFixture(dir, w, p); err != nil {
		return "", fmt.Errorf("writing WAL fixture: %w", err)
	}
	return dir, nil
}

// satRPS is the median over the saturation phase's windows of runs
// reaching succeeded per second, scaled to the nominal host speed.
func (p *passResult) satRPS() float64 { return percentile(p.closed.rates, 50) * p.slowdown }

// endToEnd files the untraced pass's user-visible figures. asMetrics
// makes the JSON end-to-end metrics of them; otherwise (the traced run)
// they only go in the report.
func (p *passResult) endToEnd(e *emitter, w workload, asMetrics bool) {
	put := e.report
	if asMetrics {
		put = e.metric
	}
	put("setup_s", "s", percentile(p.setupS, 50))
	e.note("setup_runs_s", p.setupS)
	e.note("setup_runs_raw_s", p.rawSetupS)
	e.report("p50_ms", "ms", p.open.windowP50())
	e.report("p50_all_ms", "ms", percentile(p.open.latency, 50))
	pct, v, _ := tail(p.open.latency)
	e.report("tail_ms", "ms", v)
	e.note("tail_pct", pct)
	e.note("latency_samples", len(p.open.latency))
	p99v, _ := p99(p.open.latency)
	e.report("p99_ms", "ms", p99v)
	put("sat_rps", "1/s", p.satRPS())
	put("cpu_ms_per_run", "ms", percentile(p.closed.cpuPerRun, 50)/p.slowdown)
	e.report("sat_rps_raw", "1/s", percentile(p.closed.rates, 50))
	e.report("cpu_ms_per_run_raw", "ms", percentile(p.closed.cpuPerRun, 50))
	e.note("host_slowdown", p.slowdown)
	e.note("sat_window_raw_rps", p.closed.rates)
	e.note("sat_succeeded", p.closed.succeeded)
	put("heap_mb", "MiB", p.heapMB)

	t := p.tally
	t.mu.Lock()
	runFails := t.rejected + t.submitErrs + t.failedRuns + t.mismatches + t.neverTerminal
	e.report("fail_frac", "1", float64(runFails)/float64(t.submitted))
	e.note("runs_attempted", t.submitted)
	e.note("rejected_429", t.rejected)
	e.note("mismatches", t.mismatches)
	t.mu.Unlock()
	if w.readRatio > 0 {
		e.report("get_p50_ms", "ms", percentile(p.reads.get, 50))
		gpct, gv, _ := tail(p.reads.get)
		e.report("get_tail_ms", "ms", gv)
		e.note("get_tail_pct", gpct)
		e.note("get_samples", len(p.reads.get))
		e.report("list_p50_ms", "ms", percentile(p.reads.list, 50))
		e.note("list_samples", len(p.reads.list))
	}
	e.report("server.post_p50_ms", "ms", percentile(p.posts, 50))
	ppct, pv, _ := tail(p.posts)
	e.report("server.post_tail_ms", "ms", pv)
	e.note("server.post_tail_pct", ppct)
	lpct, lv, _ := tail(p.open.late)
	e.report("loadgen.late_tail_ms", "ms", lv)
	e.note("loadgen.late_tail_pct", lpct)
	e.report("loadgen.conns", "count", float64(p.conns))
	e.note("loadgen.conn_cap", runtime.NumCPU())
	e.note("steady_state", p.evidence)
}

// perLayer files the traced run's per-layer metrics. The server's figures
// come from the untraced pass, since the traced stack has no HTTP.
func perLayer(e *emitter, w workload, u, t *passResult) {
	ls := analyze(t.spans, t.window)
	window := t.window.end.Sub(t.window.start)
	capacity := float64(t.dispatches) * window.Seconds()

	e.metric("server.post_p50_ms", "ms", percentile(u.posts, 50))
	_, pv, _ := tail(u.posts)
	e.metric("server.post_tail_ms", "ms", pv)

	e.metric("dispatch.submit_self_p50_us", "us", percentile(ls.submitSelf, 50))
	e.metric("dispatch.queue_wait_p50_ms", "ms", percentile(ls.queueWait, 50))
	qpct, qv, _ := tail(ls.queueWait)
	e.metric("dispatch.queue_wait_tail_ms", "ms", qv)
	e.note("dispatch.queue_wait_tail_pct", qpct)
	t.tally.mu.Lock()
	e.metric("dispatch.rejected", "count", float64(t.tally.rejected))
	t.tally.mu.Unlock()
	e.metric("dispatch.busy_frac", "1", (ls.dispatchBusy+ls.evictBusy).Seconds()/capacity)

	e.metric("store.create_p50_us", "us", percentile(ls.create, 50))
	e.metric("store.begin_p50_us", "us", percentile(ls.begin, 50))
	e.metric("store.finish_p50_us", "us", percentile(ls.finish, 50))
	e.metric("store.evict_p50_us", "us", percentile(ls.evict, 50))
	epct, ev, _ := tail(ls.evict)
	e.metric("store.evict_tail_us", "us", ev)
	e.note("store.evict_tail_pct", epct)
	e.metric("store.evict_busy_frac", "1", ls.evictBusy.Seconds()/capacity)
	e.metric("store.evicted_per_call", "count", float64(ls.evicted)/float64(len(ls.evict)))
	e.metric("store.await_wake_p50_us", "us", percentile(ls.awaitWake, 50))
	if w.readRatio > 0 {
		gpct, gv, _ := tail(ls.get)
		e.report("store.get_tail_us", "us", gv)
		e.note("store.get_tail_pct", gpct)
		e.report("store.list_p50_ms", "ms", percentile(ls.list, 50))
	}

	e.metric("run.execute_p50_ms", "ms", percentile(ls.execute, 50))
	e.metric("run.serial_p50_ms", "ms", percentile(ls.serial, 50))
	e.metric("gen.other_p50_ms", "ms", percentile(ls.other, 50))
	e.metric("sched.parallel_p50_ms", "ms", percentile(ls.parallel, 50))
	e.metric("sched.speedup_mean", "x", mean(ls.speedup))
	e.metric("sched.steals_per_run", "count", float64(t.steals)/float64(ls.runs))
	e.metric("sched.nodes_per_s", "1/s", float64(t.nodes)/(sum(ls.parallel)/1000))

	_, lv, _ := tail(u.open.late)
	e.metric("loadgen.late_tail_ms", "ms", lv)
	e.metric("loadgen.conns", "count", float64(u.conns))

	if w.durable {
		runs := float64(ls.runs)
		fsyncs := counterDelta(t.before, t.after, "dagd_wal_fsyncs_total")
		e.report("wal.fsyncs_per_run", "count", fsyncs/runs)
		e.report("wal.records_per_fsync", "count", counterDelta(t.before, t.after, "dagd_wal_appends_total")/fsyncs)
		e.report("wal.fsync_p50_ms", "ms", 1000*histogramDelta(t.before, t.after, "dagd_wal_fsync_seconds").quantile(0.5))
		e.report("wal.bytes_per_run", "B", counterDelta(t.before, t.after, "dagd_wal_appended_bytes_total")/runs)
		e.report("wal.compactions", "count", counterDelta(t.before, t.after, "dagd_wal_compactions_total"))
		e.report("wal.compaction_s", "s", histogramDelta(t.before, t.after, "dagd_wal_compaction_seconds").sum)
	}

	// Tracing overhead: the traced stack against the untraced one on the
	// same plan. It also lacks HTTP, so this is tracing cost net of the
	// server's.
	tp50 := t.open.windowP50()
	up50 := u.open.windowP50()
	e.metric("trace.overhead_sat_frac", "1", (u.satRPS()-t.satRPS())/u.satRPS())
	e.metric("trace.overhead_p50_frac", "1", (tp50-up50)/up50)
	e.report("traced.sat_rps", "1/s", t.satRPS())
	e.report("traced.p50_ms", "ms", tp50)
	e.report("traced.setup_s", "s", t.setupS[0])
	e.report("traced.setup_raw_s", "s", t.rawSetupS[0])
	e.note("traced.spans", len(t.spans))
	e.note("traced.steady_state", t.evidence)
}
