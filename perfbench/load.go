package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// target is one way into the stack under test: dagd's HTTP API in the
// untraced run, the dispatcher and timed store in the traced run.
type target interface {
	// submit admits pool spec i and returns the run ID.
	submit(ctx context.Context, i int) (string, error)
	// await blocks until the run is terminal or ctx is done.
	await(ctx context.Context, id string) (run.Run, error)
	// get reads one run.
	get(ctx context.Context, id string) error
	// listPage reads one page of the run list after cursor and returns the
	// next cursor ("" at the end).
	listPage(ctx context.Context, cursor string) (string, error)
}

// awaitBudget bounds how long a submitted run may take to reach a terminal
// state before it counts as never-terminal.
const awaitBudget = 30 * time.Second

// tally counts every operation attempted and every way one can fail.
type tally struct {
	mu            sync.Mutex
	submitted     int // submissions attempted
	rejected      int // 429: queue full, rate limited, quota exceeded
	submitErrs    int // any other submission failure
	failedRuns    int // terminal but not succeeded
	mismatches    int // succeeded with match false or a wrong answer
	neverTerminal int // not terminal within awaitBudget
	reads         int // reader requests attempted
	readErrs      int // reader requests that failed
	firstProblem  string
}

func (t *tally) note(format string, args ...any) {
	if t.firstProblem == "" {
		t.firstProblem = fmt.Sprintf(format, args...)
	}
}

// loader drives a target with one plan and checks every answer.
type loader struct {
	t      target
	plan   *plan
	tally  tally
	recent idRing
	// readWindow is how many of the newest IDs readers choose from: few
	// enough that none can have been evicted, so every read must succeed.
	readWindow int

	mu    sync.Mutex
	posts []float64 // submit round trips, ms
}

func newLoader(t target, p *plan, w workload) *loader {
	return &loader{t: t, plan: p, readWindow: w.retention() / 4}
}

// isRejected reports a backpressure refusal, from either side of the HTTP
// boundary.
func isRejected(err error) bool {
	return errors.Is(err, api.ErrQueueFull) || errors.Is(err, api.ErrRateLimited) ||
		errors.Is(err, api.ErrQuotaExceeded) || errors.Is(err, dispatch.ErrQueueFull) ||
		errors.Is(err, dispatch.ErrRateLimited) || errors.Is(err, dispatch.ErrQuotaExceeded)
}

// submitOne submits pool spec i and records the round trip.
func (l *loader) submitOne(ctx context.Context, i int) (string, bool) {
	t0 := time.Now()
	id, err := l.t.submit(ctx, i)
	d := time.Since(t0)
	l.tally.mu.Lock()
	defer l.tally.mu.Unlock()
	l.tally.submitted++
	if err != nil {
		if ctx.Err() != nil {
			l.tally.submitErrs++
			return "", false
		}
		if isRejected(err) {
			l.tally.rejected++
		} else {
			l.tally.submitErrs++
		}
		l.tally.note("submit: %v", err)
		return "", false
	}
	l.mu.Lock()
	l.posts = append(l.posts, ms(d))
	l.mu.Unlock()
	l.recent.add(id)
	return id, true
}

// awaitChecked waits for run id (pool spec i) and checks its answer: it
// must succeed with match true and the golden sink_paths_mod64.
func (l *loader) awaitChecked(ctx context.Context, i int, id string) bool {
	actx, cancel := context.WithTimeout(ctx, awaitBudget)
	r, err := l.t.await(actx, id)
	cancel()
	l.tally.mu.Lock()
	defer l.tally.mu.Unlock()
	switch {
	case err != nil || !r.State.Terminal():
		l.tally.neverTerminal++
		l.tally.note("run %s not terminal (state %v): %v", id, r.State, err)
		return false
	case r.State != run.StateSucceeded:
		l.tally.failedRuns++
		l.tally.note("run %s %v: %s", id, r.State, r.Error)
		return false
	case r.Result == nil || !r.Result.Match || r.Result.SinkPaths != l.plan.golden[i]:
		l.tally.mismatches++
		if r.Result != nil {
			l.tally.note("run %s: match %v, sink_paths_mod64 %d, golden %d",
				id, r.Result.Match, r.Result.SinkPaths, l.plan.golden[i])
		} else {
			l.tally.note("run %s succeeded without a result", id)
		}
		return false
	}
	return true
}

// warm submits the plan's warm-up runs, keeping backlog outstanding, and
// waits for each to finish correctly.
func (l *loader) warm(ctx context.Context, backlog int) error {
	var next atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < backlog; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(l.plan.warm) {
					return
				}
				i := l.plan.warm[k]
				id, ok := l.submitOne(ctx, i)
				if !ok || !l.awaitChecked(ctx, i, id) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d of %d runs failed; first: %s", n, len(l.plan.warm), l.tally.firstProblem)
	}
	return nil
}

// openResult is the open-loop phase's outcome.
type openResult struct {
	latency []float64 // due → terminal, ms, succeeded runs
	window  [phaseWindows][]float64
	late    []float64 // due → sent, ms
}

// windowP50 is the median over the phase's windows of each window's median
// latency.
func (r openResult) windowP50() float64 {
	var meds []float64
	for _, w := range r.window {
		if len(w) > 0 {
			meds = append(meds, percentile(w, 50))
		}
	}
	return percentile(meds, 50)
}

// openLoop sends the plan's open-loop schedule: each request goes out when
// it is due, whatever the state of earlier ones, and is timed from when it
// was due.
func (l *loader) openLoop(ctx context.Context) openResult {
	var res openResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	span := l.plan.open[len(l.plan.open)-1].at + 1
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, a := range l.plan.open {
		due := start.Add(a.at)
		if !sleepUntil(ctx, timer, due) {
			break
		}
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			late := ms(time.Since(due))
			id, ok := l.submitOne(ctx, a.spec)
			ok = ok && l.awaitChecked(ctx, a.spec, id)
			done := time.Now()
			mu.Lock()
			res.late = append(res.late, late)
			if ok {
				lat := ms(done.Sub(due))
				k := int(a.at * phaseWindows / span)
				res.latency = append(res.latency, lat)
				res.window[k] = append(res.window[k], lat)
			}
			mu.Unlock()
		}(a, due)
	}
	wg.Wait()
	return res
}

// phaseWindows is how many equal windows the open-loop phase is cut into;
// its median latency is the median over the windows.
const phaseWindows = 8

// satWindow is the length of one saturation-phase window. Each window has
// a few dozen runs, so a phase of several seconds gives enough windows for
// the medians over them to be steady.
const satWindow = 500 * time.Millisecond

// closedResult is the saturation phase's outcome.
type closedResult struct {
	succeeded int       // runs that succeeded before the deadline
	rates     []float64 // runs succeeded per second, per window
	cpuPerRun []float64 // process CPU (user + system) ms per succeeded run, per window
}

// closedLoop keeps backlog runs outstanding for span: each worker submits
// its next run as soon as its previous one is terminal. Runs that finish
// after the deadline are still checked but not counted.
func (l *loader) closedLoop(ctx context.Context, backlog int, span time.Duration) closedResult {
	var next atomic.Int64
	var wg sync.WaitGroup
	windows := max(1, int(span/satWindow))
	win := span / time.Duration(windows)
	counts := make([]atomic.Int64, windows)
	cpu := make([]time.Duration, windows+1)
	cpu[0] = processCPU()
	start := time.Now()
	deadline := start.Add(span)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for k := 1; k <= windows; k++ {
			if !sleepUntil(ctx, timer, start.Add(time.Duration(k)*win)) {
				return
			}
			cpu[k] = processCPU()
		}
	}()
	for w := 0; w < backlog; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := l.plan.closed[int(next.Add(1)-1)%len(l.plan.closed)]
				id, ok := l.submitOne(ctx, i)
				if !ok {
					continue
				}
				if l.awaitChecked(ctx, i, id) {
					if k := int(time.Since(start) / win); k < windows {
						counts[k].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	<-sampled
	var res closedResult
	for k := range counts {
		n := counts[k].Load()
		res.succeeded += int(n)
		res.rates = append(res.rates, float64(n)/win.Seconds())
		if n > 0 && cpu[k+1] > 0 {
			res.cpuPerRun = append(res.cpuPerRun, ms(cpu[k+1]-cpu[k])/float64(n))
		}
	}
	return res
}

// readResult is the readers' outcome.
type readResult struct {
	get  []float64 // GET /v1/runs/{id} round trips from due, ms
	list []float64 // one list page from due, ms
}

// readers polls recent runs and walks the run list on the plan's
// schedules until they end or ctx is done.
func (l *loader) readers(ctx context.Context) readResult {
	var res readResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		cursor := ""
		for _, a := range l.plan.pages {
			due := start.Add(a.at)
			if !sleepUntil(ctx, timer, due) {
				return
			}
			next, err := l.t.listPage(ctx, cursor)
			d := ms(time.Since(due))
			if !l.readDone(ctx, err) {
				continue
			}
			cursor = next
			mu.Lock()
			res.list = append(res.list, d)
			mu.Unlock()
		}
	}()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k, a := range l.plan.gets {
		due := start.Add(a.at)
		if !sleepUntil(ctx, timer, due) {
			break
		}
		id, ok := l.recent.pick(l.plan.readPick[k], l.readWindow)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			err := l.t.get(ctx, id)
			d := ms(time.Since(due))
			if l.readDone(ctx, err) {
				mu.Lock()
				res.get = append(res.get, d)
				mu.Unlock()
			}
		}(due)
	}
	wg.Wait()
	return res
}

// readDone tallies one reader request and reports whether it succeeded.
func (l *loader) readDone(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false // stopped with its phase: not a failure
	}
	l.tally.mu.Lock()
	defer l.tally.mu.Unlock()
	l.tally.reads++
	if err != nil {
		l.tally.readErrs++
		l.tally.note("reader: %v", err)
		return false
	}
	return true
}

// sleepUntil waits for t on timer, returning false if ctx ends first.
func sleepUntil(ctx context.Context, timer *time.Timer, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer.Reset(d)
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		if !timer.Stop() {
			<-timer.C
		}
		return false
	}
}

// idRing holds the most recently submitted run IDs for readers to poll.
type idRing struct {
	mu  sync.Mutex
	ids [512]string
	n   int
}

func (r *idRing) add(id string) {
	r.mu.Lock()
	r.ids[r.n%len(r.ids)] = id
	r.n++
	r.mu.Unlock()
}

// pick returns one of the newest `within` held IDs, chosen by k.
func (r *idRing) pick(k, within int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := min(r.n, len(r.ids), within)
	if held == 0 {
		return "", false
	}
	return r.ids[(r.n-1-k%held+len(r.ids))%len(r.ids)], true
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the machine-wide CPU counters from /proc/stat: time stolen
// by the hypervisor and the total. ok is false where there is no such file.
func hostCPU() (steal, total float64, ok bool) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
