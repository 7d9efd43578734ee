package run

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// checkRetention verifies the retention index against the store: it holds
// exactly the terminal runs that have a FinishedAt, each entry is the live
// entry for its ID and knows its own slot, and the heap order holds.
func checkRetention(t *testing.T, s *MemStore) {
	t.Helper()
	want := 0
	for i := range s.shards {
		for _, tr := range s.shards[i].runs {
			if tr.run.State.Terminal() && tr.run.FinishedAt != nil {
				want++
			}
		}
	}
	h := &s.retain
	if len(h.heap) != want {
		t.Fatalf("retention index holds %d runs, store has %d evictable", len(h.heap), want)
	}
	for i, tr := range h.heap {
		if tr.slot != i+1 {
			t.Fatalf("heap[%d] has slot %d", i, tr.slot)
		}
		if cur := s.shardFor(tr.run.ID).runs[tr.run.ID]; cur != tr {
			t.Fatalf("heap[%d] (%s) is not the store's entry for its ID", i, tr.run.ID)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

// TestRetentionConcurrent races finishes, queued cancels, deletes,
// overwriting restores and evictions against each other (run it with
// -race), then checks the index still matches the store and eviction
// still trims to exactly the limit.
func TestRetentionConcurrent(t *testing.T) {
	s := NewMemStore()
	const keep = 32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r, _ := s.Create(pipelineSpec())
				switch i % 5 {
				case 0:
					s.Cancel(r.ID)
				case 1:
					s.Begin(r.ID, time.Now(), "", func() {})
					s.Finish(r.ID, nil, context.Canceled)
					s.Delete(r.ID)
				case 2:
					s.Begin(r.ID, time.Now(), "", func() {})
					f, _ := s.Finish(r.ID, &Result{Match: true}, nil)
					later := f.FinishedAt.Add(time.Duration(g) * time.Millisecond)
					f.FinishedAt = &later
					s.Restore(f)
				default:
					s.Begin(r.ID, time.Now(), "", func() {})
					s.Finish(r.ID, &Result{Match: true}, nil)
				}
				s.EvictTerminal(keep)
			}
		}(g)
	}
	wg.Wait()
	checkRetention(t, s)
	s.EvictTerminal(keep)
	if n := s.CountByState(); n[StateSucceeded]+n[StateCancelled] != keep {
		t.Errorf("terminal runs after EvictTerminal(%d) = %v", keep, n)
	}
	checkRetention(t, s)
}

// BenchmarkFinishEvict measures the retention step the dispatcher runs per
// run: create, begin and finish one run, then EvictTerminal back to the
// limit, with terminal history held at that limit. Eviction pops its one
// victim off the retention index, so ns/op and allocs/op stay flat from
// 4096 to 65536 retained runs.
func BenchmarkFinishEvict(b *testing.B) {
	for _, history := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			s := NewMemStore()
			spec := pipelineSpec()
			step := func() {
				r, _ := s.Create(spec)
				s.Begin(r.ID, time.Now(), "", nil)
				s.Finish(r.ID, &Result{Match: true}, nil)
				s.EvictTerminal(history)
			}
			for i := 0; i < history; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
