package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/mc"
	"repro/internal/report"
)

// TestSaveMergeRoundTripIsBitExact drives the offline reduction end to end
// with the real binaries: three `mcsim -save` partial runs of one sharded
// experiment, merged by `mcmerge -o`, must give the very bits of the three
// streams' tallies merged in order in process.
func TestSaveMergeRoundTripIsBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mcsim and mcmerge")
	}
	dir := t.TempDir()
	mcsim, mcmerge := filepath.Join(dir, "mcsim"), filepath.Join(dir, "mcmerge")
	for bin, pkg := range map[string]string{mcsim: "../mcsim", mcmerge: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	const photons, seed, streams = 1500, 5, 3
	parts := make([]string, streams)
	for i := range parts {
		parts[i] = filepath.Join(dir, fmt.Sprintf("part%d.tally", i))
		cmd := exec.Command(mcsim, "-photons", fmt.Sprint(photons), "-seed", fmt.Sprint(seed),
			"-stream", fmt.Sprint(i), "-streams", fmt.Sprint(streams),
			"-path-grid", "-grid", "8", "-save", parts[i])
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("mcsim stream %d: %v\n%s", i, err, out)
		}
	}
	merged := filepath.Join(dir, "full.tally")
	if out, err := exec.Command(mcmerge, append([]string{"-o", merged}, parts...)...).CombinedOutput(); err != nil {
		t.Fatalf("mcmerge: %v\n%s", err, out)
	}

	got, err := report.Load(merged)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := got.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want *mc.Tally
	for i := range streams {
		tally, err := mc.RunStream(cfg, photons, seed, i, streams)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = tally
		} else if err := want.Merge(tally); err != nil {
			t.Fatal(err)
		}
	}
	if got.Tally.Launched != photons*streams || got.Seed != seed || got.Streams != streams {
		t.Fatalf("merged file: %d photons, seed %d, %d streams", got.Tally.Launched, got.Seed, got.Streams)
	}
	if !bytes.Equal(mc.AppendTally(nil, got.Tally), mc.AppendTally(nil, want)) {
		t.Fatal("the merged file's tally is not the in-process merge of its streams, bit for bit")
	}
}
