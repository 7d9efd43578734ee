package wal

import (
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/storetest"
)

// TestStoreHistoryConformance runs the crafted-history eviction cases
// against the WAL backend: each history is logged as put records, in the
// given order, and the store under test is the one that replays them.
func TestStoreHistoryConformance(t *testing.T) {
	open := func(opts Options) storetest.History {
		return func(t *testing.T, history []run.Run) run.Store {
			dir := t.TempDir()
			s, _, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for i := range history {
				sh := s.shardFor(history[i].ID)
				sh.mu.Lock()
				ticket, err := sh.appendLocked(record{Op: opPut, Run: &history[i]})
				sh.mu.Unlock()
				if err == nil {
					err = sh.waitDurable(ticket)
				}
				if err != nil {
					t.Fatalf("logging history: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, _, err = Open(dir, opts)
			if err != nil {
				t.Fatalf("reopening: %v", err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
	}
	t.Run("Default", func(t *testing.T) { storetest.RunHistory(t, open(Options{})) })
	t.Run("Shards1", func(t *testing.T) { storetest.RunHistory(t, open(Options{Shards: 1})) })
	t.Run("AggressiveCompaction", func(t *testing.T) {
		storetest.RunHistory(t, open(Options{CompactThreshold: 4}))
	})
}
