// Command mcserver runs the DataManager: it listens for worker clients,
// hands out simulation chunks, reduces returned tallies and prints the
// final result — the server half of the paper's distributed platform.
//
// Example (three terminals):
//
//	mcserver -addr :9876 -photons 1000000 -chunk 50000 -model adult-head
//	mcworker -addr localhost:9876 -name pc1
//	mcworker -addr localhost:9876 -name pc2
//
// The job is write-ahead journaled into -journal (default
// mcserver-journal; empty disables), so neither Ctrl-C nor kill -9 loses
// reduced work: restart with the same job flags and the same -journal and
// the server replays it, recomputes only the chunks that were in flight,
// and finishes with the tally an uninterrupted run prints. A journal
// holding a different job is refused; completion removes it.
//
// -debug-addr starts an HTTP debug listener serving GET /metrics
// (Prometheus text exposition of the service-plane counters), GET
// /healthz, GET /readyz and net/http/pprof. Logging is structured
// (-log-format text|json); -v only lowers the level to debug.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/distsys"
	"repro/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("mcserver", flag.ExitOnError)
	var sf cli.SpecFlags
	sf.Register(fs)
	addr := fs.String("addr", ":9876", "listen address")
	debugAddr := fs.String("debug-addr", "",
		"HTTP listener for /metrics, /healthz, /readyz and /debug/pprof (empty: disabled)")
	photons := fs.Int64("photons", 1_000_000, "total photon packets")
	chunk := fs.Int64("chunk", 50_000, "photons per work unit")
	seed := fs.Uint64("seed", 1, "master RNG seed")
	timeout := fs.Duration("chunk-timeout", 5*time.Minute,
		"reassign a chunk if no result arrives in this window")
	journalDir := fs.String("journal", "mcserver-journal",
		"write-ahead journal directory: a restart with the same job flags resumes from it, completion removes it (empty: disabled)")
	var lf cli.LogFlags
	lf.Register(fs)
	fs.Parse(os.Args[1:])

	logger, err := lf.Build(os.Stderr)
	if err != nil {
		fatal(err)
	}
	spec, err := sf.Build()
	if err != nil {
		fatal(err)
	}

	// Bind before touching the journal: a port clash must not leave a
	// journaled job behind for the corrected command line to trip over.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	oreg := obs.NewRegistry()
	ready := obs.NewReadiness("fleet-listener")
	dm, err := distsys.NewDataManager(distsys.JobOptions{
		Spec:         spec,
		TotalPhotons: *photons,
		ChunkPhotons: *chunk,
		Seed:         *seed,
		ChunkTimeout: *timeout,
		JournalDir:   *journalDir,
		Obs:          oreg,
		Logger:       logger,
	})
	if err != nil {
		fatal(err)
	}
	if done, total := dm.Progress(); done > 0 {
		fmt.Printf("resumed job from %s: %d/%d chunks already reduced\n", *journalDir, done, total)
	}

	ready.Set("fleet-listener", true)
	debugSrv, err := cli.ServeDebug(nil, *debugAddr, oreg, ready, logger)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("datamanager listening on %s — %d photons in %d chunks\n",
		l.Addr(), *photons, dm.NumChunks())

	// SIGINT/SIGTERM compacts and closes the journal — it already holds
	// every reduced batch, so this only shortens the next start's replay.
	// The debug listener is drained first so a scrape in flight is not cut
	// off mid-body.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		if debugSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			debugSrv.Shutdown(ctx)
			cancel()
		}
		if err := dm.Close(); err != nil {
			logger.Error("journal close failed", "err", err)
			os.Exit(1)
		}
		if *journalDir != "" {
			done, total := dm.Progress()
			fmt.Printf("\nmcserver: %v — %d/%d chunks journaled in %s (rerun the same command to resume)\n",
				s, done, total, *journalDir)
		}
		os.Exit(0)
	}()

	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-dm.Done():
				return
			case <-tick.C:
				done, total := dm.Progress()
				fmt.Printf("progress: %d/%d chunks\n", done, total)
			}
		}
	}()

	go dm.Serve(l)
	res, err := dm.Wait(0)
	if err != nil {
		fatal(err)
	}

	cfg, err := spec.Build()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\njob complete in %v (%d chunks, %d reassigned, %d duplicate results)\n",
		res.Elapsed.Round(time.Millisecond), res.Chunks, res.Reassigned, res.Duplicates)
	for _, w := range res.Workers {
		fmt.Printf("  %-16s %5d chunks\n", w.Name, w.Chunks)
	}
	fmt.Println()
	cli.PrintTally(os.Stdout, res.Tally, cfg.Model)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcserver:", err)
	os.Exit(1)
}
