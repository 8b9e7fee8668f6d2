// Command genjob prints a small, valid POST /jobs request body for the
// observability smoke test (scripts/obs-smoke.sh). Generating the JSON
// from the real Spec types — instead of freezing a JSON string in the
// shell script — keeps the smoke job compiling against whatever the
// submission schema currently is. Flags size the job so the same tool can
// emit both the quick job the smoke test runs to completion and the big
// one it leaves active across the SIGTERM journal compaction, and pick the
// geometry and sizing rule so it can also seed the submit decoder's fuzz
// corpus (internal/service/testdata/fuzz/FuzzDecodeJobRequest).
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
	"repro/internal/voxel"
)

func main() {
	model := flag.String("model", "slab", "geometry: slab (5 mm homogeneous), head (the paper's adult head) or voxel (a small voxelised slab)")
	photons := flag.Int64("photons", 2000, "total photon packets")
	chunk := flag.Int64("chunk", 500, "photons per chunk")
	seed := flag.Uint64("seed", 7, "master RNG seed")
	label := flag.String("label", "smoke", "job label")
	relErr := flag.Float64("relerr", 0, "if positive, ask for this relative error on diffuse reflectance instead of a photon count")
	flag.Parse()

	src := source.Spec{Kind: source.KindPencil}
	det := detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}
	slab := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	var spec *mc.Spec
	switch *model {
	case "slab":
		spec = mc.NewSpec(slab, src, det)
	case "head":
		spec = mc.NewSpec(tissue.AdultHead(), src, det)
	case "voxel":
		g, err := voxel.FromModel(slab, 8, 8, 5, 1, 1, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genjob:", err)
			os.Exit(1)
		}
		spec = mc.NewVoxelSpec(g, src, det)
	default:
		fmt.Fprintf(os.Stderr, "genjob: unknown -model %q\n", *model)
		os.Exit(2)
	}
	req := service.JobRequest{Spec: spec, Photons: *photons, ChunkPhotons: *chunk,
		Seed: *seed, Label: *label}
	if *relErr > 0 {
		req.Photons = 0
		req.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: *relErr}
	}
	b, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genjob:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
