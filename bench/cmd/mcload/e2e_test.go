package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/bench/proctree"
	"repro/bench/workload"
)

// TestFullTree boots the real process tree and runs three seconds of one
// open-loop and one closed-loop workload, untraced and traced. It spawns
// daemons and takes most of a minute, so it runs only when asked for:
//
//	MCLOAD_E2E=1 go test ./cmd/mcload
func TestFullTree(t *testing.T) {
	if os.Getenv("MCLOAD_E2E") != "1" {
		t.Skip("set MCLOAD_E2E=1 to boot the process tree")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	e := &env{root: root, binDir: filepath.Join(work, "bin"), runParent: filepath.Join(work, "run"),
		outDir: filepath.Join(work, "out")}
	ctx := context.Background()
	if _, err := proctree.Build(ctx, root, e.binDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{workload.TenantMix, workload.GridResults} {
		r, err := e.runUntraced(ctx, name, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed %s: %v", name, r.Correct, r.Failed, r.Attempted, r.Void, r.Failures)
		}
		for _, m := range []string{"setup_s", "jobs_per_s", "photons_per_s", "submit_to_result_p50_ms"} {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s is %g", name, m, r.Metrics[m].Value)
			}
		}
		if cpu := r.Diagnostics["tree_cpu_s"].Value; cpu <= 0 {
			t.Errorf("%s: tree_cpu_s is %g", name, cpu)
		}
	}
	r, err := e.runTraced(ctx, workload.TenantMix, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("traced tenant-mix: %d of %d failed %s: %v", r.Failed, r.Attempted, r.Void, r.Failures)
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace-tenant-mix.jsonl")); err != nil {
		t.Error(err)
	}
}
