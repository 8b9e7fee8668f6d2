// Command mcworker is the client half of the distributed platform (the
// paper's "Algorithm" class): it connects to a server — the single-job
// mcserver or the multi-job mcqueue, the protocol is identical — pulls
// simulation chunks of whatever jobs the fleet is running, computes them
// and returns the tallies, until the server reports the service done.
//
// Example:
//
//	mcworker -addr localhost:9876 -name lab-pc-07
//
// -debug-addr starts an HTTP debug listener serving GET /metrics (photons
// simulated, per-chunk compute-time histogram, batch flushes, wire
// frame/byte counters, goroutines and heap), GET /healthz, GET /readyz (ready once the server
// session is established) and net/http/pprof. Logging is structured
// (-log-format text|json); -v only lowers the level to debug.
//
// The worker survives a restarting server: by default it redials after
// dial failures and dropped sessions under exponential backoff with
// jitter (-reconnect=false restores the old exit-on-first-error
// behaviour; -reconnect-max caps the backoff). -addr may list several
// comma-separated endpoints — a shard's primary and its lease-file
// standbys — and reconnect attempts rotate through them, so the worker
// follows a failover to whichever process inherited the shard. SIGTERM/SIGINT drain
// gracefully — the current chunk finishes, what is computed of the grant is
// handed back, then the process exits.
//
// The worker's Hello carries its build string, which the server shows as
// the session's version on GET /fleet beside the speed it measures from
// grant to result arrival; the worker sends no other telemetry.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/distsys"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:9876",
		"DataManager address, or a comma-separated list (shard primary,standby: dial attempts rotate)")
	debugAddr := flag.String("debug-addr", "",
		"HTTP listener for /metrics, /healthz, /readyz and /debug/pprof (empty: disabled)")
	name := flag.String("name", hostnameDefault(), "worker name reported to the server")
	slowdown := flag.Float64("slowdown", 0,
		"artificial slowdown factor: sleep this multiple of each grant's wall time after it (testing heterogeneous fleets)")
	flushChunks := flag.Int("flush-chunks", 0,
		"request window: the most chunks asked for at once and handed back as one pre-reduced batch "+
			"(0: the default; 1: one chunk per round trip, a deterministic tally fold)")
	reconnect := flag.Bool("reconnect", true,
		"redial after dial failures and dropped sessions (exponential backoff with jitter); a refused hello still exits")
	reconnectMax := flag.Duration("reconnect-max", distsys.DefaultReconnectMax,
		"backoff ceiling between reconnect attempts")
	var lf cli.LogFlags
	lf.Register(flag.CommandLine)
	flag.Parse()

	logger, err := lf.Build(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcworker:", err)
		os.Exit(1)
	}
	oreg := obs.NewRegistry()
	ready := obs.NewReadiness("session")
	if _, err := cli.ServeDebug(nil, *debugAddr, oreg, ready, logger); err != nil {
		fmt.Fprintln(os.Stderr, "mcworker:", err)
		os.Exit(1)
	}

	// SIGTERM/SIGINT request a graceful drain: the worker finishes its
	// current chunk, hands back what it has computed of its grant, and
	// exits — no result is abandoned to the server's timeout reclaim.
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigCh
		logger.Info("signal received; draining", "signal", s.String())
		close(stop)
	}()

	opts := distsys.WorkerOptions{
		Name:        *name,
		Slowdown:    *slowdown,
		FlushChunks: *flushChunks,
		Obs:         oreg,
		Ready:       ready,
		Logger:      logger,
		Stop:        stop,
	}

	// A comma-separated -addr lists a shard's fleet endpoints (primary
	// first, then standbys); reconnect attempts rotate through them so the
	// worker follows a lease-file failover to whichever process took over.
	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	start := time.Now()
	stats, err := distsys.WorkLoopTCPMulti(addrs, opts, distsys.LoopOptions{
		Reconnect: *reconnect,
		Max:       *reconnectMax,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcworker:", err)
		os.Exit(1)
	}
	fmt.Printf("done: %d chunks, %d photons, %.1fs compute, %.1fs wall\n",
		stats.Chunks, stats.Photons, stats.Compute.Seconds(), time.Since(start).Seconds())
	if stats.Rejected > 0 {
		fmt.Printf("note: %d result(s) rejected by the server (stale or reassigned chunks)\n",
			stats.Rejected)
	}
}

func hostnameDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
