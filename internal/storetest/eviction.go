package storetest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// History opens a store whose contents are exactly history, rebuilt the
// way a restart rebuilds them: the in-memory store restores each run in
// the given order, the WAL store replays them from its log. A run may
// repeat an ID; the later snapshot overwrites the earlier one. Non-terminal
// runs may come back re-admitted (the WAL store requeues them), but never
// terminal.
type History func(t *testing.T, history []run.Run) run.Store

// RunHistory executes the eviction-order cases that need a crafted
// history — tied FinishedAt stamps, restores out of finish order,
// overwrites — against stores opened by open.
func RunHistory(t *testing.T, open History) {
	t.Run("TieBreak", func(t *testing.T) { testEvictTieBreak(t, open) })
	t.Run("OutOfOrderRestore", func(t *testing.T) { testEvictOutOfOrder(t, open) })
	t.Run("OverwriteAndDelete", func(t *testing.T) { testEvictOverwriteDelete(t, open) })
	t.Run("NonTerminalNeverEvicted", func(t *testing.T) { testEvictNonTerminal(t, open) })
	t.Run("RandomizedAgainstReference", func(t *testing.T) { testEvictRandomized(t, open) })
}

// base is the crafted histories' epoch: well before any run a test creates
// live, so crafted runs are always the oldest-finished.
var base = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func at(sec int) *time.Time {
	ts := base.Add(time.Duration(sec) * time.Second)
	return &ts
}

// terminalRun is a crafted succeeded run created at created and finished
// at finished (seconds after base).
func terminalRun(id string, created, finished int) run.Run {
	return run.Run{
		ID:         id,
		Spec:       spec(),
		State:      run.StateSucceeded,
		Result:     &run.Result{Match: true},
		CreatedAt:  *at(created),
		StartedAt:  at(created),
		FinishedAt: at(finished),
	}
}

func shuffled(rng *rand.Rand, runs []run.Run) []run.Run {
	out := append([]run.Run(nil), runs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// referenceVictims is the eviction order as the original copy-and-sort
// implementation defined it: every terminal run with a FinishedAt, sorted
// by (FinishedAt, CreatedAt, ID), the first len-keep evicted.
func referenceVictims(list []run.Run, keep int) []string {
	if keep <= 0 {
		return nil
	}
	var terminal []run.Run
	for _, r := range list {
		if r.State.Terminal() && r.FinishedAt != nil {
			terminal = append(terminal, r)
		}
	}
	excess := len(terminal) - keep
	if excess <= 0 {
		return nil
	}
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].FinishedAt.Equal(*terminal[j].FinishedAt) {
			return terminal[i].FinishedAt.Before(*terminal[j].FinishedAt)
		}
		return run.CompareRuns(terminal[i], terminal[j]) < 0
	})
	ids := make([]string, excess)
	for i, r := range terminal[:excess] {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// evictChecked runs EvictTerminal(keep) and checks it evicted exactly the
// reference victims, returning them sorted.
func evictChecked(t *testing.T, s run.Store, keep int) []string {
	t.Helper()
	before := s.List()
	want := referenceVictims(before, keep)
	n := s.EvictTerminal(keep)
	present := make(map[string]bool)
	for _, r := range s.List() {
		present[r.ID] = true
	}
	var gone []string
	for _, r := range before {
		if !present[r.ID] {
			gone = append(gone, r.ID)
		}
	}
	sort.Strings(gone)
	if n != len(gone) {
		t.Fatalf("EvictTerminal(%d) = %d, but %d runs left the store", keep, n, len(gone))
	}
	if fmt.Sprint(gone) != fmt.Sprint(want) {
		t.Fatalf("EvictTerminal(%d) evicted %v, want %v", keep, gone, want)
	}
	return gone
}

func terminalCount(s run.Store) int {
	n := 0
	for state, c := range s.CountByState() {
		if state.Terminal() {
			n += c
		}
	}
	return n
}

// testEvictTieBreak pins that runs finishing at the same instant evict in
// (CreatedAt, ID) order, including runs tied on CreatedAt too.
func testEvictTieBreak(t *testing.T, open History) {
	var history []run.Run
	for i := 0; i < 12; i++ {
		// Four CreatedAt values, three IDs each, one FinishedAt for all.
		history = append(history, terminalRun(fmt.Sprintf("tie-%02d", 11-i), i/3, 100))
	}
	s := open(t, shuffled(rand.New(rand.NewSource(1)), history))
	for keep := len(history) - 1; keep >= 1; keep -= 2 {
		evictChecked(t, s, keep)
	}
	// The survivor is the last run in CompareRuns order.
	if list := s.List(); len(list) != 1 || list[0].ID != "tie-02" {
		t.Errorf("survivor = %v, want tie-02 (latest CreatedAt, then highest ID)", list)
	}
}

// testEvictOutOfOrder pins that history restored in an order unrelated to
// finish order still evicts oldest-finished first, one run at a time.
func testEvictOutOfOrder(t *testing.T, open History) {
	rng := rand.New(rand.NewSource(2))
	var history []run.Run
	for i, fin := range rng.Perm(20) {
		// CreatedAt ascends with the ID; FinishedAt is a permutation, so
		// creation order says nothing about finish order.
		history = append(history, terminalRun(fmt.Sprintf("ooo-%02d", i), i, 100+fin))
	}
	s := open(t, shuffled(rng, history))
	for keep := len(history) - 1; keep >= 1; keep-- {
		gone := evictChecked(t, s, keep)
		if len(gone) != 1 {
			t.Fatalf("EvictTerminal(%d) evicted %v, want exactly one run", keep, gone)
		}
	}
}

// testEvictOverwriteDelete pins that neither a restore over a terminal
// entry nor a Delete of a terminal run leaves eviction miscounting.
func testEvictOverwriteDelete(t *testing.T, open History) {
	history := []run.Run{
		terminalRun("ow-a", 0, 10),
		terminalRun("ow-b", 1, 11),
		terminalRun("ow-c", 2, 12),
		terminalRun("ow-d", 3, 13),
		terminalRun("ow-e", 4, 14),
		terminalRun("ow-f", 5, 15),
		// ow-a finishes again, newest of all; ow-b is overwritten by a
		// non-terminal snapshot and must no longer count as history.
		terminalRun("ow-a", 0, 50),
		{ID: "ow-b", Spec: spec(), State: run.StateQueued, CreatedAt: *at(1)},
	}
	s := open(t, history)
	if got := terminalCount(s); got != 5 {
		t.Fatalf("terminal runs after overwrites = %d, want 5", got)
	}
	if err := s.Delete("ow-f"); err != nil {
		t.Fatal(err)
	}
	if got := evictChecked(t, s, 2); fmt.Sprint(got) != "[ow-c ow-d]" {
		t.Errorf("evicted %v, want [ow-c ow-d]", got)
	}
	if got := terminalCount(s); got != 2 {
		t.Errorf("terminal runs after EvictTerminal(2) = %d, want 2", got)
	}
	for _, id := range []string{"ow-a", "ow-b", "ow-e"} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("Get(%s) after eviction: %v", id, err)
		}
	}
	// Live history joins behind the restored runs.
	live := finished(t, s)
	if got := evictChecked(t, s, 1); fmt.Sprint(got) != "[ow-a ow-e]" {
		t.Errorf("evicted %v, want [ow-a ow-e]", got)
	}
	if _, err := s.Get(live.ID); err != nil {
		t.Errorf("newest run %s evicted: %v", live.ID, err)
	}
}

// testEvictNonTerminal pins that queued and running runs are never
// evicted, however old, even when eviction empties the rest of history.
func testEvictNonTerminal(t *testing.T, open History) {
	history := []run.Run{
		{ID: "nt-queued", Spec: spec(), State: run.StateQueued, CreatedAt: *at(0)},
		{ID: "nt-running", Spec: spec(), State: run.StateRunning, CreatedAt: *at(0),
			StartedAt: at(1)},
		terminalRun("nt-t1", 2, 3),
		terminalRun("nt-t2", 2, 4),
	}
	s := open(t, history)
	queued := create(t, s)
	running := create(t, s)
	begin(t, s, running.ID)
	finished(t, s)

	evictChecked(t, s, 1)
	for _, id := range []string{"nt-queued", "nt-running", queued.ID, running.ID} {
		r, err := s.Get(id)
		if err != nil {
			t.Errorf("non-terminal run %s evicted: %v", id, err)
		} else if r.State.Terminal() {
			t.Errorf("run %s is %s, want non-terminal", id, r.State)
		}
	}
	if got := terminalCount(s); got != 1 {
		t.Errorf("terminal runs = %d, want 1", got)
	}
}

// testEvictRandomized checks eviction against the copy-and-sort reference
// over seeded random histories and random live operations: ties on both
// FinishedAt and CreatedAt, out-of-order restores, overwrites, deletes of
// any state, and evictions to random limits.
func testEvictRandomized(t *testing.T, open History) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var history []run.Run
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("rnd-%02d", rng.Intn(45)) // repeats overwrite
				r := terminalRun(id, rng.Intn(8), 10+rng.Intn(8))
				switch rng.Intn(10) {
				case 0:
					r = run.Run{ID: id, Spec: spec(), State: run.StateQueued, CreatedAt: *at(rng.Intn(8))}
				case 1:
					r.State, r.Error, r.Result = run.StateFailed, "boom", nil
				case 2:
					r.State, r.Error, r.Result = run.StateCancelled, "cancelled while queued", nil
				case 3:
					r.FinishedAt = nil // terminal without a stamp: never evictable
				}
				history = append(history, r)
			}
			s := open(t, history)
			for step := 0; step < 150; step++ {
				list := s.List()
				pick := func(pred func(run.Run) bool) (string, bool) {
					var ids []string
					for _, r := range list {
						if pred(r) {
							ids = append(ids, r.ID)
						}
					}
					if len(ids) == 0 {
						return "", false
					}
					return ids[rng.Intn(len(ids))], true
				}
				switch op := rng.Intn(10); {
				case op < 2:
					create(t, s)
				case op < 4:
					if id, ok := pick(func(r run.Run) bool { return r.State == run.StateQueued }); ok {
						begin(t, s, id)
					}
				case op < 6:
					if id, ok := pick(func(r run.Run) bool { return r.State == run.StateRunning }); ok {
						var runErr error
						if rng.Intn(3) == 0 {
							runErr = errors.New("boom")
						}
						finish(t, s, id, &run.Result{Match: true}, runErr)
					}
				case op < 7:
					if id, ok := pick(func(r run.Run) bool { return !r.State.Terminal() }); ok {
						if _, err := s.Cancel(id); err != nil {
							t.Fatalf("Cancel(%s): %v", id, err)
						}
						if r, _ := s.Get(id); r.State == run.StateRunning {
							finish(t, s, id, nil, context.Canceled)
						}
					}
				case op < 8:
					if id, ok := pick(func(run.Run) bool { return true }); ok {
						if err := s.Delete(id); err != nil {
							t.Fatalf("Delete(%s): %v", id, err)
						}
					}
				default:
					evictChecked(t, s, 1+rng.Intn(30))
				}
			}
		})
	}
}
