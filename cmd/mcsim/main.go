// Command mcsim runs a local (single-machine, multi-goroutine) Monte Carlo
// photon transport simulation and prints a summary, optionally with ASCII
// path/absorption maps and CSV grid dumps.
//
// Examples:
//
//	mcsim -photons 100000 -model adult-head
//	mcsim -model white-matter -detector disk -det-sep 3 -det-radius 1 \
//	      -path-grid -grid 50 -grid-edge 12 -photons 200000 -map
//	mcsim -model adult-head -detector annulus -gate-max 80 -photons 50000
//	mcsim -model adult-head -rel-err 0.01 -target-obs diffuse
//
// The last form runs until the diffuse reflectance's relative standard
// error reaches 1% instead of guessing a photon budget up front, and
// prints the estimate with its 95% confidence interval.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/mc"
	"repro/internal/render"
	"repro/internal/report"
)

func main() {
	fs := flag.NewFlagSet("mcsim", flag.ExitOnError)
	var sf cli.SpecFlags
	sf.Register(fs)
	photons := fs.Int64("photons", 100000, "number of photon packets")
	seed := fs.Uint64("seed", 1, "master RNG seed")
	workers := fs.Int("workers", 0, "RNG streams, run on up to GOMAXPROCS cores (0 = GOMAXPROCS)")
	relErr := fs.Float64("rel-err", 0,
		"run until this relative standard error instead of a fixed -photons budget (e.g. 0.01)")
	targetObs := fs.String("target-obs", "diffuse",
		"observable the -rel-err target steers by: diffuse, transmit, absorbed, detected")
	targetChunk := fs.Int64("target-chunk", 10000, "photons per adaptive round chunk")
	minPhotons := fs.Int64("min-photons", 0,
		"photon floor before the first -rel-err test (0 = 16 chunks; low floors bias the stop)")
	maxPhotons := fs.Int64("max-photons", 0,
		"photon cap for -rel-err runs (0 = 100× -photons)")
	showMap := fs.Bool("map", false, "print an ASCII x–z map of the scored grid")
	csvPath := fs.String("csv", "", "write the grid's y-projection as CSV to this file")
	savePath := fs.String("save", "", "write the tally as a mergeable .tally file")
	stream := fs.Int("stream", 0, "RNG stream index of this partial run (with -streams)")
	streams := fs.Int("streams", 1, "total number of RNG streams across partial runs")
	fs.Parse(os.Args[1:])

	spec, err := sf.Build()
	if err != nil {
		fatal(err)
	}
	cfg, err := spec.Build()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model    %s (%d layers)\n", cfg.Model.Name, cfg.Model.NumLayers())
	fmt.Printf("source   %s\n", cfg.Source.Describe())
	fmt.Printf("detector %s\n", cfg.Detector.Describe())
	fmt.Printf("boundary %s\n\n", cfg.Boundary)

	start := time.Now()
	var tally *mc.Tally
	switch {
	case *relErr > 0:
		// Run-until-precision: rounds of -workers streams until the
		// target observable's RSE reaches -rel-err.
		if *streams > 1 {
			fatal(fmt.Errorf("-rel-err and -streams are mutually exclusive"))
		}
		tgt := mc.Target{
			Observable: mc.Observable(*targetObs),
			RelErr:     *relErr,
			MinPhotons: *minPhotons,
			MaxPhotons: *maxPhotons,
		}
		if tgt.MinPhotons == 0 {
			tgt.MinPhotons = 16 * *targetChunk
		}
		if tgt.MaxPhotons == 0 {
			tgt.MaxPhotons = 100 * *photons
		}
		tally, err = mc.RunAdaptive(cfg, tgt, *seed, *targetChunk, *workers)
		if err == nil {
			est, ci := tally.EstimateCI(tgt.Observable)
			status := "met"
			if !tgt.MetBy(tally) {
				status = "NOT met (photon cap reached)"
			}
			fmt.Printf("precision target %s RSE ≤ %g: %s\n", tgt.Observable, tgt.RelErr, status)
			fmt.Printf("estimate %s = %.6f ± %.6f (95%% CI, RSE %.3g%%) after %d photons\n\n",
				tgt.Observable, est, ci, 100*tally.RelStdErr(tgt.Observable), tally.Launched)
		}
	case *streams > 1:
		// Partial run: one stream of a sharded experiment, mergeable later
		// with mcmerge.
		tally, err = mc.RunStream(cfg, *photons, *seed, *stream, *streams)
	default:
		tally, err = mc.RunParallel(cfg, *photons, *seed, *workers)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	cli.PrintTally(os.Stdout, tally, cfg.Model)
	fmt.Printf("\nwall time %.2fs (%.0f photons/s)\n",
		elapsed.Seconds(), float64(tally.Launched)/elapsed.Seconds())

	grid := tally.PathGrid
	what := "detected-photon path density"
	if grid == nil {
		grid, what = tally.AbsGrid, "absorbed weight"
	}
	if grid != nil {
		if *showMap {
			g := grid.Clone()
			g.Threshold(0.01)
			rows := render.Downsample(render.CropDepth(g.ProjectY()), 100, 40)
			fmt.Println()
			render.Frame(os.Stdout, what+" (x–z projection, log scale)", rows, "x", "depth z")
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := grid.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("grid written to %s\n", *csvPath)
		}
	}

	if *savePath != "" {
		name, _ := os.Hostname()
		rf, err := report.New(spec, *seed, *streams, name, tally)
		if err != nil {
			fatal(err)
		}
		if err := rf.Save(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("tally written to %s (stream %d/%d — merge with mcmerge)\n",
			*savePath, *stream, *streams)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	os.Exit(1)
}
