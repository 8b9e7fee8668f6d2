// Command genjob prints a small, valid POST /jobs request body for the
// observability smoke test (scripts/obs-smoke.sh). Generating the JSON
// from the real Spec types — instead of freezing a JSON string in the
// shell script — keeps the smoke job compiling against whatever the
// submission schema currently is. Flags size the job so the same tool can
// emit both the quick job the smoke test runs to completion and the big
// one it leaves active across the SIGTERM journal compaction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
)

func main() {
	photons := flag.Int64("photons", 2000, "total photon packets")
	chunk := flag.Int64("chunk", 500, "photons per chunk")
	seed := flag.Uint64("seed", 7, "master RNG seed")
	label := flag.String("label", "smoke", "job label")
	flag.Parse()

	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	spec := mc.NewSpec(model,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	req := service.JobRequest{Spec: spec, Photons: *photons, ChunkPhotons: *chunk,
		Seed: *seed, Label: *label}
	b, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genjob:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
