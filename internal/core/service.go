package core

import (
	"context"
	"net/http"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// Run-service re-exports, so service callers (internal/server, cmd/dagd)
// wire against core alone just like engine callers do.
type (
	RunSpec   = run.Spec
	RunState  = run.State
	RunResult = run.Result
	RunInfo   = run.Run
	RunStore  = run.Store
	// TenantConfig is one tenant's admission policy (weight, priority
	// class, quotas, submit rate limit) — the element type of the -tenants
	// file and ServiceOptions.Tenants.
	TenantConfig = tenant.Config
	// TenantStats is one tenant's scheduling snapshot inside ServiceStats.
	TenantStats = dispatch.TenantStats
	// RetryableError wraps backpressure rejections (rate_limited,
	// quota_exceeded, queue full) with the tenant hit and a Retry-After
	// hint for the API layer.
	RetryableError = dispatch.RetryableError
	// FleetStats is the distributed-execution snapshot (worker count,
	// active leases) embedded in ServiceStats when remote mode is on.
	FleetStats = fleet.Stats
)

// Fleet lease-clock defaults, re-exported for dagd's flag help.
const (
	DefaultLeaseTTL          = fleet.DefaultLeaseTTL
	DefaultHeartbeatInterval = fleet.DefaultHeartbeatInterval
)

// DefaultTenant is the catch-all tenant name submissions with no (or an
// unconfigured) X-Tenant are attributed to.
const DefaultTenant = tenant.Default

// Run lifecycle states.
const (
	RunQueued    = run.StateQueued
	RunRunning   = run.StateRunning
	RunSucceeded = run.StateSucceeded
	RunFailed    = run.StateFailed
	RunCancelled = run.StateCancelled
)

// Run-service errors.
var (
	ErrRunNotFound     = run.ErrNotFound
	ErrRunTerminal     = run.ErrTerminal
	ErrRunMismatch     = run.ErrMismatch
	ErrInvalidSpec     = run.ErrInvalidSpec
	ErrUnknownWorkload = run.ErrUnknownWorkload
	ErrQueueFull       = dispatch.ErrQueueFull
	ErrRateLimited     = dispatch.ErrRateLimited
	ErrQuotaExceeded   = dispatch.ErrQuotaExceeded
	ErrShuttingDown    = dispatch.ErrShuttingDown
	ErrInvalidTenants  = tenant.ErrInvalidConfig
)

// LoadTenantConfigs reads tenant configs from a JSON file (bare array or
// {"tenants":[...]}) — the dagd -tenants flag's loader.
func LoadTenantConfigs(path string) ([]TenantConfig, error) { return tenant.LoadFile(path) }

// ParseRunState converts a state name ("queued", "running", ...) to a RunState.
func ParseRunState(name string) (RunState, error) { return run.ParseState(name) }

// CompareRuns is the shared (CreatedAt, ID) run comparator — the order
// List returns and pagination cursors walk. Re-exported for the API layer.
func CompareRuns(a, b RunInfo) int { return run.CompareRuns(a, b) }

// CompareRunToCursor compares a run's pagination position to a decoded
// (UnixNano, ID) cursor in the same order as CompareRuns.
func CompareRunToCursor(r RunInfo, nanos int64, id string) int {
	return run.CompareToCursor(r, nanos, id)
}

// ExecuteRun performs one run end to end (generate → serial reference →
// parallel scheduler → self-check) outside any service — the one-shot path
// dagbench uses, identical to what dagd dispatchers execute.
func ExecuteRun(ctx context.Context, spec RunSpec, defaultWorkers int) (*RunResult, error) {
	return run.Execute(ctx, spec, defaultWorkers)
}

// ServiceOptions sizes a Service.
type ServiceOptions struct {
	// QueueDepth bounds the dispatch queue (0 = 256).
	QueueDepth int
	// Dispatchers is how many runs execute concurrently (0 = NumCPU).
	Dispatchers int
	// DefaultRunWorkers is the per-run scheduler pool size for specs that
	// leave Workers at 0 (0 = NumCPU).
	DefaultRunWorkers int
	// DefaultWorkload is stamped onto specs that name no workload
	// ("" = the registry default, sched.DefaultWorkload).
	DefaultWorkload string
	// RetainRuns bounds how many terminal runs are kept, oldest-finished
	// evicted first (0 = 4096, negative = unlimited).
	RetainRuns int
	// DataDir enables the durable WAL-backed run store rooted at this
	// directory: every state transition is logged, and on the next boot
	// terminal runs are restored as history while interrupted runs are
	// re-admitted to the dispatcher. Empty keeps the in-memory store
	// (a restart loses everything, as before).
	DataDir string
	// Fsync makes every acknowledged transition durable against power loss:
	// a WAL append does not return until its record is fsynced. Syncs are
	// group-committed per shard, so concurrent transitions share one fsync.
	// Only meaningful with DataDir set.
	Fsync bool
	// FsyncMaxDelay bounds how long a WAL group-commit batch may keep
	// accumulating while appends are arriving (0 = wal.DefaultFsyncMaxDelay,
	// negative = sync each batch immediately). Only meaningful with Fsync.
	FsyncMaxDelay time.Duration
	// WALShards is the number of independent WAL shard directories (0 =
	// adopt the data dir's manifest, or wal.DefaultShards when fresh). A
	// non-zero value that disagrees with an existing manifest fails
	// NewService with wal.ErrShardCountMismatch. Only meaningful with
	// DataDir.
	WALShards int
	// CompactThreshold is how many WAL records may accumulate in one shard
	// before its terminal runs are compacted into a snapshot file and old
	// segments removed (0 = 4096, negative = never). Only meaningful with
	// DataDir.
	CompactThreshold int
	// Tenants is the multi-tenant admission policy (dagd -tenants). Nil
	// means only the catch-all default tenant exists — every submission
	// shares one queue bounded by QueueDepth, as before. Invalid configs
	// fail NewService with ErrInvalidTenants.
	Tenants []TenantConfig
	// Metrics is the registry every layer (dispatch, scheduler, WAL, run
	// states) instruments into. Nil means NewService creates its own, so
	// Service.Metrics — and GET /metrics — always has a live registry.
	Metrics *metrics.Registry
	// Remote switches the dispatcher to lease mode: instead of executing
	// runs in-process, ready runs are leased to external dagworker
	// processes over the fleet worker API (served by FleetHandler). With
	// Remote false the service executes embedded, exactly as before.
	Remote bool
	// LeaseTTL is how long a worker lease survives without a heartbeat
	// before its run is requeued for re-dispatch (0 = DefaultLeaseTTL).
	// Only meaningful with Remote.
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence workers are told to heartbeat at;
	// must stay under LeaseTTL/2 (0 = DefaultHeartbeatInterval). Only
	// meaningful with Remote.
	HeartbeatInterval time.Duration
}

// ServiceStats is a snapshot of service load for health reporting.
type ServiceStats struct {
	Runs        int            `json:"runs"`
	ByState     map[string]int `json:"by_state"`
	QueueLen    int            `json:"queue_len"`
	QueueDepth  int            `json:"queue_depth"`
	Dispatchers int            `json:"dispatchers"`
	// Recovered is how many interrupted runs were re-admitted to the queue
	// when this process booted from an existing data dir.
	Recovered int `json:"recovered,omitempty"`
	// Tenants is each tenant's scheduling snapshot: queue length, in-flight
	// count, and admission counters, keyed by tenant name.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Fleet is the distributed-execution snapshot: registered workers and
	// active leases. Present only when the service runs in remote mode.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// Service is the long-running run-execution facade: a run store (in-memory,
// or WAL-backed when ServiceOptions.DataDir is set) plus a dispatcher pool
// executing submitted specs through the scheduler. It is what dagd serves
// over HTTP.
type Service struct {
	store           run.Store
	disp            *dispatch.Dispatcher
	fleet           *fleet.Manager // nil when executing embedded
	metrics         *metrics.Registry
	defaultWorkload string
	recovered       int
}

// NewService builds a Service and starts its dispatcher pool; with a
// DataDir it first replays the WAL, restoring history and re-admitting
// interrupted runs. Callers must eventually call Shutdown, which also
// closes the store. It fails only when the data dir cannot be opened or
// its log chain is corrupt.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.DefaultWorkload == "" {
		opts.DefaultWorkload = DefaultWorkload
	}
	registry, err := tenant.NewRegistry(opts.Tenants)
	if err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	var store run.Store
	var recovered []run.Run
	if opts.DataDir != "" {
		ws, rec, err := wal.Open(opts.DataDir, wal.Options{
			Fsync:            opts.Fsync,
			FsyncMaxDelay:    opts.FsyncMaxDelay,
			Shards:           opts.WALShards,
			CompactThreshold: opts.CompactThreshold,
			Metrics:          opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		store, recovered = ws, rec
	} else {
		store = run.NewMemStore()
	}
	disp := dispatch.New(store, dispatch.Options{
		QueueDepth:        opts.QueueDepth,
		Dispatchers:       opts.Dispatchers,
		DefaultRunWorkers: opts.DefaultRunWorkers,
		DefaultWorkload:   opts.DefaultWorkload,
		RetainRuns:        opts.RetainRuns,
		Tenants:           registry,
		Metrics:           opts.Metrics,
		Remote:            opts.Remote,
	})
	if len(recovered) > 0 {
		disp.Recover(recovered)
	}
	svc := &Service{
		store:           store,
		disp:            disp,
		metrics:         opts.Metrics,
		defaultWorkload: opts.DefaultWorkload,
		recovered:       len(recovered),
	}
	if opts.Remote {
		svc.fleet = fleet.NewManager(disp, fleet.Options{
			LeaseTTL:          opts.LeaseTTL,
			HeartbeatInterval: opts.HeartbeatInterval,
			Metrics:           opts.Metrics,
		})
	}

	// Service-level series: scheduler process-lifetime tallies as
	// func-backed counters, a constant for how many interrupted runs this
	// boot re-admitted, and the store's runs-by-state as a scrape-time
	// gauge (all five states zero-filled so dashboards never see gaps).
	opts.Metrics.CounterFunc("dagd_sched_nodes_executed_total",
		"DAG nodes retired by the work-stealing scheduler across all runs.",
		func() float64 { return float64(sched.NodesExecuted()) })
	opts.Metrics.CounterFunc("dagd_sched_steals_total",
		"Successful work-stealing operations across all runs.",
		func() float64 { return float64(sched.Steals()) })
	opts.Metrics.GaugeFunc("dagd_recovered_runs",
		"Interrupted runs re-admitted from the WAL when this process booted.",
		func() float64 { return float64(svc.recovered) })
	byState := opts.Metrics.GaugeVec("dagd_runs", "Runs in the store, by lifecycle state.", "state")
	opts.Metrics.OnCollect(func() {
		counts := svc.store.CountByState()
		for _, st := range []run.State{run.StateQueued, run.StateRunning, run.StateSucceeded, run.StateFailed, run.StateCancelled} {
			byState.With(st.String()).Set(float64(counts[st]))
		}
	})
	return svc, nil
}

// Metrics returns the service's metric registry — the families every layer
// below registered into — for the HTTP layer to render at GET /metrics.
func (s *Service) Metrics() *metrics.Registry { return s.metrics }

// DefaultWorkloadName reports which workload the service stamps onto specs
// that name none (surfaced by GET /v1/workloads).
func (s *Service) DefaultWorkloadName() string { return s.defaultWorkload }

// Recovered reports how many interrupted runs this process re-admitted on
// boot (always 0 for the in-memory store).
func (s *Service) Recovered() int { return s.recovered }

// FleetHandler returns the internal worker API (register/lease/heartbeat/
// complete under /fleet/v1/) when the service runs in remote mode, nil when
// it executes embedded. dagd serves it on its own listener, never the
// public one.
func (s *Service) FleetHandler() http.Handler {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.Handler()
}

// Submit validates and enqueues a run, returning its queued snapshot.
func (s *Service) Submit(spec RunSpec) (RunInfo, error) { return s.disp.Submit(spec) }

// Get returns a snapshot of one run.
func (s *Service) Get(id string) (RunInfo, error) { return s.store.Get(id) }

// Await blocks until the run reaches a terminal state or ctx is done and
// returns the latest snapshot either way; it fails on unknown IDs, or when
// the durable store could not sync the terminal record. A terminal state
// is reported only once its record is durable. This backs the HTTP API's
// ?wait= long-poll.
func (s *Service) Await(ctx context.Context, id string) (RunInfo, error) {
	return s.store.Await(ctx, id)
}

// Draining reports whether Shutdown has begun (readiness signal; new
// submissions are already being refused with ErrShuttingDown).
func (s *Service) Draining() bool { return s.disp.Draining() }

// List returns snapshots of all runs, oldest first.
func (s *Service) List() []RunInfo { return s.store.List() }

// Cancel requests cancellation of a queued or running run.
func (s *Service) Cancel(id string) (RunInfo, error) { return s.disp.Cancel(id) }

// Stats snapshots current service load. The dispatcher fields (QueueLen and
// the per-tenant table) come from one dispatch.Snapshot taken under a single
// lock acquisition, so QueueLen always equals the sum of the per-tenant
// Queued values — reading them separately lets the counters move in between
// and hands /healthz an internally inconsistent answer.
func (s *Service) Stats() ServiceStats {
	byState := make(map[string]int)
	total := 0
	for state, n := range s.store.CountByState() {
		byState[state.String()] = n
		total += n
	}
	snap := s.disp.Snapshot()
	stats := ServiceStats{
		Runs:        total,
		ByState:     byState,
		QueueLen:    snap.QueueLen,
		QueueDepth:  s.disp.QueueDepth(),
		Dispatchers: s.disp.Dispatchers(),
		Recovered:   s.recovered,
		Tenants:     snap.Tenants,
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		stats.Fleet = &fs
	}
	return stats
}

// Shutdown stops accepting runs, drains the dispatcher pool (force-
// cancelling in-flight runs if ctx expires first), then closes the store so
// a WAL backend seals its active segment. The dispatcher error wins when
// both fail.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.disp.Shutdown(ctx)
	// The fleet sweeper stays alive through the drain: if a worker dies
	// mid-drain its leases must still expire and requeue so a survivor can
	// finish them. Only once the dispatcher has drained (or given up) is
	// the sweeper stopped.
	if s.fleet != nil {
		s.fleet.Close()
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
