package run_test

import (
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/storetest"
)

// TestStoreConformance runs the shared store conformance suite against the
// in-memory backend. The WAL backend runs the identical suite from
// internal/store/wal, which is what keeps the two implementations
// observably interchangeable.
func TestStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) run.Store {
		s := run.NewMemStore()
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestStoreHistoryConformance runs the crafted-history eviction cases
// against the in-memory backend, restoring each run in the given order.
func TestStoreHistoryConformance(t *testing.T) {
	storetest.RunHistory(t, func(t *testing.T, history []run.Run) run.Store {
		s := run.NewMemStore()
		for _, r := range history {
			s.Restore(r)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}
