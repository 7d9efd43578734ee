package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/server"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/client"
)

// drainTimeout bounds the graceful part of every shutdown; in-flight runs
// still going after it are force-cancelled.
const drainTimeout = 5 * time.Second

// service is dagd's stack in this process: core.NewService with dagd's
// default options, server.New(svc).Handler() on a loopback listener, and a
// pkg/client over one http.Transport capped at nproc connections.
type service struct {
	svc     *core.Service
	reg     *metrics.Registry
	httpSrv *http.Server
	served  chan error
	tr      *http.Transport
	cl      *client.Client
	dir     string // WAL data dir, "" for the in-memory store
	conns   connCounter
	pool    []api.RunSpec
}

// startService builds the stack for w. dir, when w is durable, is created
// for the WAL and removed by close.
func startService(w workload, dir string, pool []api.RunSpec) (_ *service, err error) {
	s := &service{reg: metrics.NewRegistry(), pool: pool}
	opts := core.ServiceOptions{RetainRuns: w.retain, Metrics: s.reg}
	if w.durable {
		s.dir = dir
		opts.DataDir = dir
		opts.Fsync = true
		opts.CompactThreshold = w.compactThreshold
	}
	defer func() {
		if err != nil && s.dir != "" {
			os.RemoveAll(s.dir)
		}
	}()
	if s.svc, err = core.NewService(opts); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Shutdown(context.Background())
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: server.New(s.svc).Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()

	conns := runtime.NumCPU()
	dialer := &net.Dialer{}
	s.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return s.conns.opened(c), nil
		},
	}
	s.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: s.tr}))
	return s, nil
}

// close stops the service: a bounded drain, then force-cancel of whatever
// is still running; then the HTTP server and its listener, the client's
// connections, and the WAL data dir.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = nil // the drain ran out and in-flight runs were cancelled, as intended
	}
	if cerr := s.httpSrv.Close(); err == nil {
		err = cerr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.tr.CloseIdleConnections()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// terminal is the number of terminal runs the store holds.
func (s *service) terminal() int {
	st := s.svc.Stats().ByState
	return st[run.StateSucceeded.String()] + st[run.StateFailed.String()] + st[run.StateCancelled.String()]
}

// httpTarget drives the service through its HTTP API; completion is
// observed in-process with Service.Await, so long-polls hold no
// connections.
type httpTarget struct{ s *service }

func (t httpTarget) submit(ctx context.Context, i int) (string, error) {
	r, err := t.s.cl.Submit(ctx, t.s.pool[i])
	if err != nil {
		return "", err
	}
	return r.ID, nil
}

func (t httpTarget) await(ctx context.Context, id string) (run.Run, error) {
	return t.s.svc.Await(ctx, id)
}

func (t httpTarget) get(ctx context.Context, id string) error {
	_, err := t.s.cl.Get(ctx, id)
	return err
}

func (t httpTarget) listPage(ctx context.Context, cursor string) (string, error) {
	page, err := t.s.cl.List(ctx, client.ListOptions{Limit: 100, Cursor: cursor})
	if err != nil {
		return "", err
	}
	return page.NextCursor, nil
}

// directTarget warms the service through Service.Submit, skipping HTTP so
// setup spends its time on the store and dispatcher state it builds.
type directTarget struct {
	httpTarget
	specs []run.Spec
}

func (t directTarget) submit(_ context.Context, i int) (string, error) {
	r, err := t.s.svc.Submit(t.specs[i])
	return r.ID, err
}

// waitTerminal polls until the store holds exactly want terminal runs:
// eviction runs on the dispatcher after each finish, so the count settles
// just after the last warm-up run is observed terminal.
func waitTerminal(ctx context.Context, count func() int, want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := count()
		if got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("terminal history is %d runs, want the retention limit %d", got, want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// dataDir names the WAL directory of setup instance k under root.
func dataDir(root string, k int) string { return filepath.Join(root, fmt.Sprintf("data-%d", k)) }

// connCounter tracks the client's open connections and their peak.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) opened(conn net.Conn) net.Conn {
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}
