// Command benchcmp compares two results files written by mcload:
//
//	benchcmp old.json new.json
//	benchcmp old1.json,old2.json new1.json,new2.json
//
// Each side may be a comma-separated list whose runs are pooled: sessions
// of the two sides that alternate in time share the host's drift.
//
// It prints one row per workload and end-to-end metric — the medians of
// both files' untraced runs, the shift between them, the spread of the
// runs, and a verdict against the metric's bound in BENCHMARK.json: better,
// within, worse, or unresolved when the runs of one file disagree among
// themselves by more than the bound. A shift smaller than that spread is
// never printed as a percentage. The exit code is 1 when any row is worse
// or any workload's share of failed operations rose.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench/report"
)

func main() {
	specDir := flag.String("spec", "", "directory holding BENCHMARK.json (default: the nearest one above the working directory)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-spec dir] old.json[,old2.json…] new.json[,new2.json…]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	regressed, err := compare(*specDir, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func compare(specDir, oldPath, newPath string) (regressed bool, err error) {
	if specDir == "" {
		if specDir, err = findSpec(); err != nil {
			return false, err
		}
	}
	spec, err := report.LoadSpec(specDir)
	if err != nil {
		return false, err
	}
	old, err := report.ReadFiles(oldPath)
	if err != nil {
		return false, err
	}
	new, err := report.ReadFiles(newPath)
	if err != nil {
		return false, err
	}
	fmt.Printf("old: %s (commit %s, %s)\nnew: %s (commit %s, %s)\n",
		oldPath, old.Commit, old.Host.CPU, newPath, new.Commit, new.Host.CPU)
	c := report.Compare(spec, old, new)
	c.Print(os.Stdout)
	return c.Regressed(), nil
}

func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory; pass -spec")
		}
		dir = parent
	}
}
