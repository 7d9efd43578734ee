package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// writeFixture writes a WAL data dir whose history has already gone past
// the retention limit: the plan's warm-up runs, each created, begun and
// finished with its golden result, with evictions logged as the dispatcher
// would log them. A durable workload's setup boots dagd from a copy of it —
// a restart with full history — because warming through the service at
// fsync speed takes longer than a run may. The fixture itself is written
// without fsync; the record format is the same.
func writeFixture(dir string, w workload, p *plan) error {
	ws, _, err := wal.Open(dir, wal.Options{CompactThreshold: w.compactThreshold})
	if err != nil {
		return err
	}
	for k, i := range p.warm {
		spec := p.specs[i]
		spec.Tenant = tenant.Default
		r, err := ws.Create(spec)
		if err == nil {
			_, err = ws.Begin(r.ID, time.Now(), "", nil)
		}
		if err == nil {
			_, err = ws.Finish(r.ID, p.results[i], nil)
		}
		if err != nil {
			ws.Close()
			return err
		}
		// Evicting in batches keeps the fixture fast; the history it
		// leaves is the same oldest-finished-first cut.
		if k%64 == 63 {
			ws.EvictTerminal(w.retention())
		}
	}
	ws.EvictTerminal(w.retention())
	return ws.Close()
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
