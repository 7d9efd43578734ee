package wal

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// syncGate blocks group-commit fsyncs while held, so a test can observe the
// window in which a terminal transition is applied in memory but its record
// is not yet durable.
type syncGate struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (g *syncGate) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *syncGate) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *syncGate) wait() {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
}

// TestAwaitWaitsForDurableTerminalRecord pins that Await (and so the API's
// ?wait= long-poll) never reports a terminal state whose record a crash
// could still lose: with the terminal record's fsync held, Await must stay
// parked even though the in-memory transition has already happened, and
// return once the fsync completes.
func TestAwaitWaitsForDurableTerminalRecord(t *testing.T) {
	spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2}}
	cases := []struct {
		name      string
		prepare   func(s *Store, id string) error
		terminate func(s *Store, id string) (run.Run, error)
		want      run.State
	}{
		{
			name: "finish",
			prepare: func(s *Store, id string) error {
				_, err := s.Begin(id, time.Now(), "", func() {})
				return err
			},
			terminate: func(s *Store, id string) (run.Run, error) {
				return s.Finish(id, &run.Result{Match: true}, nil)
			},
			want: run.StateSucceeded,
		},
		{
			name:      "cancel-queued",
			prepare:   func(*Store, string) error { return nil },
			terminate: func(s *Store, id string) (run.Run, error) { return s.Cancel(id) },
			want:      run.StateCancelled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gate := &syncGate{}
			s, _, err := Open(t.TempDir(), Options{Shards: 1, Fsync: true, beforeSync: gate.wait})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			defer gate.release()

			r, err := s.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.prepare(s, r.ID); err != nil {
				t.Fatal(err)
			}

			gate.hold()
			terminated := make(chan error, 1)
			go func() {
				_, err := tc.terminate(s, r.ID)
				terminated <- err
			}()
			awaited := make(chan run.Run, 1)
			go func() {
				got, err := s.Await(context.Background(), r.ID)
				if err != nil {
					t.Error(err)
				}
				awaited <- got
			}()

			// Wait for the in-memory transition, then give Await time to
			// (wrongly) return.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if got, _ := s.Get(r.ID); got.State == tc.want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("terminal transition never applied in memory")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case got := <-awaited:
				t.Fatalf("Await returned %s while the terminal record was not durable", got.State)
			case <-time.After(50 * time.Millisecond):
			}

			gate.release()
			select {
			case got := <-awaited:
				if got.State != tc.want {
					t.Errorf("Await = %s, want %s", got.State, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Await never returned after the fsync completed")
			}
			if err := <-terminated; err != nil {
				t.Errorf("terminal transition: %v", err)
			}
		})
	}
}
