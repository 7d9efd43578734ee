package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
)

// span is one timed call at a layer boundary. Spans of one run share its
// ID; parent names the span that caused this one within the same run.
type span struct {
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Run    string    `json:"run,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// N is a count the call returned (runs evicted).
	N int `json:"n,omitempty"`
	// Result is what Finish recorded, for the execution sub-phases.
	Result *run.Result `json:"-"`
}

// Span names and the parent each one has within its run. dispatch.submit
// and store.await are the load generator's calls; dispatch.queue and
// run.execute are gaps between store calls (Create return → the
// dispatcher's pop; Begin return → Finish call).
const (
	spanRun      = "run"
	spanSubmit   = "dispatch.submit"
	spanCreate   = "store.create"
	spanQueue    = "dispatch.queue"
	spanBegin    = "store.begin"
	spanExecute  = "run.execute"
	spanFinish   = "store.finish"
	spanAwait    = "store.await"
	spanEvict    = "store.evict"
	spanGet      = "store.get"
	spanList     = "store.list"
	spanDispatch = "dispatch.run"
)

var spanParent = map[string]string{
	spanSubmit:   spanRun,
	spanCreate:   spanSubmit,
	spanQueue:    spanRun,
	spanDispatch: spanRun,
	spanBegin:    spanDispatch,
	spanExecute:  spanDispatch,
	spanFinish:   spanDispatch,
	spanAwait:    spanRun,
}

// recorder keeps spans in memory while on.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	s.Parent = spanParent[s.Name]
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// dispatched carries Begin's dispatchedAt argument as a zero-length span
// so the queue wait can be derived.
const spanDispatched = "dispatch.pop"

// timedStore is a run.Store that times every call into the store it wraps.
type timedStore struct {
	inner run.Store
	rec   *recorder
}

var _ run.Store = (*timedStore)(nil)

func (s *timedStore) Create(spec run.Spec) (run.Run, error) {
	t0 := time.Now()
	r, err := s.inner.Create(spec)
	s.rec.add(span{Name: spanCreate, Run: r.ID, Start: t0, End: time.Now()})
	return r, err
}

func (s *timedStore) Get(id string) (run.Run, error) {
	t0 := time.Now()
	r, err := s.inner.Get(id)
	s.rec.add(span{Name: spanGet, Run: id, Start: t0, End: time.Now()})
	return r, err
}

func (s *timedStore) List() []run.Run {
	t0 := time.Now()
	rs := s.inner.List()
	s.rec.add(span{Name: spanList, Start: t0, End: time.Now(), N: len(rs)})
	return rs
}

func (s *timedStore) Len() int                        { return s.inner.Len() }
func (s *timedStore) CountByState() map[run.State]int { return s.inner.CountByState() }

func (s *timedStore) Begin(id string, dispatchedAt time.Time, worker string, cancel context.CancelFunc) (run.Run, error) {
	t0 := time.Now()
	r, err := s.inner.Begin(id, dispatchedAt, worker, cancel)
	s.rec.add(span{Name: spanDispatched, Run: id, Start: dispatchedAt, End: dispatchedAt})
	s.rec.add(span{Name: spanBegin, Run: id, Start: t0, End: time.Now()})
	return r, err
}

func (s *timedStore) Finish(id string, result *run.Result, err error) (run.Run, error) {
	t0 := time.Now()
	r, ferr := s.inner.Finish(id, result, err)
	s.rec.add(span{Name: spanFinish, Run: id, Start: t0, End: time.Now(), Result: result})
	return r, ferr
}

func (s *timedStore) Requeue(id string) (run.Run, error) { return s.inner.Requeue(id) }
func (s *timedStore) Cancel(id string) (run.Run, error)  { return s.inner.Cancel(id) }
func (s *timedStore) Delete(id string) error             { return s.inner.Delete(id) }
func (s *timedStore) Close() error                       { return s.inner.Close() }

func (s *timedStore) Await(ctx context.Context, id string) (run.Run, error) {
	t0 := time.Now()
	r, err := s.inner.Await(ctx, id)
	s.rec.add(span{Name: spanAwait, Run: id, Start: t0, End: time.Now()})
	return r, err
}

func (s *timedStore) EvictTerminal(keep int) int {
	t0 := time.Now()
	n := s.inner.EvictTerminal(keep)
	s.rec.add(span{Name: spanEvict, Start: t0, End: time.Now(), N: n})
	return n
}

// tracedStack is the same stack as service, built from the layers' own
// constructors around a timedStore, with no HTTP in front.
type tracedStack struct {
	store *timedStore
	disp  *dispatch.Dispatcher
	reg   *metrics.Registry
	rec   *recorder
	dir   string
	specs []run.Spec
}

func startTraced(w workload, dir string, specs []run.Spec) (*tracedStack, error) {
	t := &tracedStack{reg: metrics.NewRegistry(), rec: &recorder{}, specs: specs}
	var inner run.Store
	if w.durable {
		ws, _, err := wal.Open(dir, wal.Options{Fsync: true, CompactThreshold: w.compactThreshold, Metrics: t.reg})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		inner, t.dir = ws, dir
	} else {
		inner = run.NewMemStore()
	}
	t.store = &timedStore{inner: inner, rec: t.rec}
	// dagd's defaults, as core.NewService passes them.
	t.disp = dispatch.New(t.store, dispatch.Options{
		DefaultWorkload: "pathcount",
		RetainRuns:      w.retain,
		Metrics:         t.reg,
	})
	return t, nil
}

// close drains the dispatcher (force-cancelling after drainTimeout), closes
// the store and removes the WAL data dir.
func (t *tracedStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := t.disp.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = nil
	}
	if cerr := t.store.Close(); err == nil {
		err = cerr
	}
	if t.dir != "" {
		if rerr := os.RemoveAll(t.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func (t *tracedStack) terminal() int {
	c := t.store.CountByState()
	return c[run.StateSucceeded] + c[run.StateFailed] + c[run.StateCancelled]
}

// submit records the dispatcher's Submit as the run's first span.
func (t *tracedStack) submit(_ context.Context, i int) (string, error) {
	t0 := time.Now()
	r, err := t.disp.Submit(t.specs[i])
	if err == nil {
		t.rec.add(span{Name: spanSubmit, Run: r.ID, Start: t0, End: time.Now()})
	}
	return r.ID, err
}

func (t *tracedStack) await(ctx context.Context, id string) (run.Run, error) {
	return t.store.Await(ctx, id)
}

func (t *tracedStack) get(_ context.Context, id string) error {
	_, err := t.store.Get(id)
	return err
}

// listPage reads the whole list, as the server does for every page.
func (t *tracedStack) listPage(context.Context, string) (string, error) {
	t.store.List()
	return "", nil
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
