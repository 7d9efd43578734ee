package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// tiny is durable_poll shrunk to run in a couple of seconds: retention,
// compaction threshold, rates and backlog are small, every layer and check
// is still on the path.
func tiny() workload {
	w := workloads["durable_poll"]
	w.name = "tiny"
	w.retain = 32
	w.compactThreshold = 16
	w.openRPS = 20
	w.backlog = 4
	return w
}

func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(entries)
}

// TestRunLeavesNothingBehind runs tiny configurations to completion and
// interrupted, and checks that each returns within a bound and leaves no
// listener, connection, open file, goroutine or scratch directory behind.
func TestRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	// The first network use opens the runtime's poller for good; do it
	// before taking the baseline.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()

	for _, c := range []struct {
		name        string
		trace       bool
		interruptAt time.Duration // 0 runs to completion
	}{
		{"untraced", false, 0},
		{"traced", true, 0},
		{"interrupted during setup", false, 50 * time.Millisecond},
		{"interrupted while measuring", true, 1500 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseFDs, baseG := openFDs(t), runtime.NumGoroutine()
			root := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.interruptAt > 0 {
				time.AfterFunc(c.interruptAt, cancel)
			}
			cfg := config{w: tiny(), seed: 7, measure: 2 * time.Second, trace: c.trace, setups: 2, tmpRoot: root}
			type outcome struct {
				res *result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := runBench(ctx, cfg)
				done <- outcome{res, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("runBench did not return within 60s")
			}
			if c.interruptAt > 0 {
				if !errors.Is(out.err, context.Canceled) {
					t.Errorf("interrupted run returned %v, want context.Canceled", out.err)
				}
			} else {
				if out.err != nil {
					t.Fatal(out.err)
				}
				if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", out.res.Correct,
						out.res.Attempted, out.res.Failed, out.res.report["first_problem"])
				}
			}

			left, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("left behind: %s", e.Name())
			}
			// Goroutines and sockets are released as the stacks stop;
			// give the runtime a moment to finish tearing them down.
			deadline := time.Now().Add(5 * time.Second)
			for {
				fds, g := openFDs(t), runtime.NumGoroutine()
				if fds <= baseFDs && g <= baseG {
					break
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d open files (baseline %d) and %d goroutines (baseline %d) remain:\n%s",
						fds, baseFDs, g, baseG, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestTinyRunReportsEveryMetric checks that an untraced run's result line
// carries exactly the end-to-end metrics BENCHMARK.json names and a traced
// run's exactly the per-layer ones, with their units.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	type named struct{ Name, Unit string }
	var contract struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &contract); err != nil {
		t.Fatal(err)
	}
	reportOnly := []string{
		"p50_ms", "tail_ms", "p99_ms", "fail_frac", "get_p50_ms", "get_tail_ms", "list_p50_ms",
		"store.get_tail_us", "store.list_p50_ms",
		"wal.fsyncs_per_run", "wal.records_per_fsync", "wal.fsync_p50_ms", "wal.bytes_per_run",
		"wal.compactions", "wal.compaction_s",
	}
	for _, trace := range []bool{false, true} {
		res, err := runBench(context.Background(), config{w: tiny(), seed: 3, measure: 2 * time.Second, trace: trace, setups: 1, tmpRoot: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		want := contract.EndToEnd
		if trace {
			want = contract.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
		for _, name := range reportOnly {
			if _, ok := res.report[name]; trace && !ok {
				t.Errorf("report lacks %s", name)
			}
		}
	}
}
