// Command mcqueue runs the multi-job simulation service: a long-lived job
// registry serving many concurrent simulations over one shared worker
// fleet, with an HTTP JSON control plane and a content-addressed result
// cache. It is the many-job generalisation of mcserver — workers are
// identical (mcworker connects to either).
//
// Example (three terminals):
//
//	mcqueue -addr :9876 -http :8080 -policy fair
//	mcworker -addr localhost:9876 -name pc1
//	curl -s localhost:8080/jobs -d '{"spec":{"Model":{"Layers":[...]}},"photons":1000000,"chunkPhotons":50000,"seed":1}'
//
// Then poll GET /jobs/{id}, fetch GET /jobs/{id}/result, cancel with
// DELETE /jobs/{id}, and watch fleet health on GET /stats. Submitting the
// same spec/photons/seed again returns the cached tally instantly.
//
// A job may carry a precision target instead of a fixed photon budget —
//
//	curl -s localhost:8080/jobs -d '{"spec":{...},"chunkPhotons":50000,"seed":1,
//	      "target":{"observable":"diffuse","relErr":0.01}}'
//
// — in which case the registry issues chunks until the observable's
// relative standard error meets the target (GET /jobs/{id} reports the
// live estimate ± CI and photons spent), and a stored run of the same
// physics that already meets-or-exceeds the precision serves the request
// from cache.
//
// The API also serves the introspection plane: GET /fleet (live worker
// sessions with reported and inferred photon throughput), GET
// /jobs/{id}/events (per-job lifecycle trace, filterable with ?kind= and
// ?since=) and GET /jobs/{id}/spans (per-chunk queue/wire/compute/reduce
// timing spans). cmd/mctop renders /fleet and /stats as a live terminal
// dashboard. The API listener additionally carries the debug surface —
// GET /metrics (Prometheus text exposition), GET /healthz, GET /readyz
// (ready once the journal has been replayed and the fleet listener is up)
// and net/http/pprof under /debug/pprof/ — unless -debug-addr
// moves it to its own listener.
// Logging is structured (-log-format text|json); -v only lowers the level
// to debug, never changes destination or format. -max-active-jobs sheds
// POST /jobs with 429 + Retry-After while that many jobs are queued or
// running, and -max-body-bytes bounds the POST /jobs body (413 beyond it).
//
// Multi-tenancy: every submission carries a tenant (X-MC-Tenant header or
// "tenant" body field; empty means "default"), and -tenants <file.json>
// enables per-tenant token-bucket admission control plus weighted
// scheduling. The file maps tenant names to classes —
//
//	{"default": {"weight": 1},
//	 "tenants": {"team-a": {"jobsPerSec": 2, "jobBurst": 10,
//	                        "photonsPerSec": 1e6, "photonBurst": 5e7, "weight": 3}}}
//
// — where jobsPerSec/jobBurst rate-limit submissions, photonsPerSec/
// photonBurst meter the photon quota (a zero rate leaves that dimension
// unlimited), and weight sets the tenant's share of fleet throughput
// under the tenant-fair policy. Submissions over a tenant's envelope are
// shed with 429 + a Retry-After computed from the bucket's refill time;
// cache hits and coalesced submissions spend a job token and no photons.
// GET /tenants lists live bucket levels, GET /stats and GET /fleet carry
// per-tenant rollups, and when -tenants is given without an explicit
// -policy the scheduler upgrades from fair to tenant-fair.
//
// Durability is one mechanism, on by default: the write-ahead journal in
// -wal-dir (default mcqueue-wal; empty disables it). Every accepted job,
// reduced chunk batch, amortized tally snapshot, finalize and cancel is
// logged, and on start the journal is replayed — before /readyz flips —
// so a Ctrl-C, kill -9, OOM kill or power cut replays instead of losing
// accepted jobs. -wal-fsync picks the always/interval/none fsync policy
// (a process kill loses nothing under any of them; the policy prices
// power loss). On SIGINT/SIGTERM in-flight HTTP requests are drained and
// the journal is compacted to one snapshot per retained job, then closed.
// See DESIGN.md "Durability".
//
// As a shard: -lease-file arms flock-based failover. The process blocks
// until it exclusively holds the lease file, so a standby started with
// the same -lease-file and -wal-dir waits idle; the moment the primary
// exits — SIGTERM or kill -9, the kernel drops the lock either way — the
// standby replays the shared journal and serves the same jobs under the
// same IDs. cmd/mcgate routes a content-keyed slice of the submission
// space to each such shard and fails client requests over from the dead
// primary to the risen standby. See DESIGN.md "Sharding".
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

func main() {
	fs := flag.NewFlagSet("mcqueue", flag.ExitOnError)
	addr := fs.String("addr", ":9876", "worker fleet listen address")
	httpAddr := fs.String("http", ":8080", "HTTP API listen address")
	debugAddr := fs.String("debug-addr", "",
		"separate listener for /metrics, /healthz, /readyz and /debug/pprof (empty: multiplexed on -http)")
	policyName := fs.String("policy", "fair",
		"cross-job scheduling policy: fifo, priority, fair, tenant-fair")
	cacheSize := fs.Int("cache", 256, "result cache entries (0 default, negative disables)")
	retain := fs.Int("retain", 1024, "finished jobs kept queryable (negative: forever)")
	maxTarget := fs.Int64("target-max-photons", 0,
		"operator cap on precision-targeted jobs' photon budgets (0 = 50M default)")
	maxActive := fs.Int("max-active-jobs", 0,
		"shed POST /jobs with 429 while this many jobs are queued or running (0: unbounded)")
	maxBody := fs.Int64("max-body-bytes", 0,
		"POST /jobs body size cap, 413 beyond it (0: 32 MiB default, negative: unbounded)")
	tenantsFile := fs.String("tenants", "",
		"JSON tenant table enabling per-tenant token-bucket admission (see package doc)")
	traceEvents := fs.Int("trace-events", 0,
		"per-job lifecycle event ring capacity (0: 512 default, negative: disable tracing)")
	spanEvents := fs.Int("span-events", 0,
		"per-job chunk span ring capacity (0: 512 default, negative: disable span recording)")
	// Parsed and ignored: bench/proctree still passes it, and this change
	// may not edit bench/. Remove it with the next benchmark change.
	fs.String("checkpoint-dir", "", "ignored (the journal in -wal-dir is the only persistence)")
	walDir := fs.String("wal-dir", "mcqueue-wal",
		"write-ahead journal directory; shutdowns and crashes (kill -9, OOM, power) replay instead of losing accepted jobs (empty: disabled)")
	walFsync := fs.String("wal-fsync", "interval",
		"journal fsync policy: always, interval, none")
	walSegBytes := fs.Int64("wal-segment-bytes", 0,
		"journal segment rotation size (0: 8 MiB default)")
	walCompactBytes := fs.Int64("wal-compact-bytes", 0,
		"journal size triggering snapshot compaction (0: 64 MiB default, negative: disable)")
	walSnapshotEvery := fs.Int("wal-snapshot-every", 0,
		"reduced chunks per job between journaled tally snapshots (0: 64 default)")
	leaseFile := fs.String("lease-file", "",
		"flock-based shard lease: blocks until exclusively held, so a standby started on the same file (and -wal-dir) takes over the instant the primary dies (empty: disabled)")
	var lf cli.LogFlags
	lf.Register(fs)
	fs.Parse(os.Args[1:])

	logger, err := lf.Build(os.Stderr)
	if err != nil {
		fatal(err)
	}
	var (
		table     *service.TenantTable
		admission service.AdmissionPolicy
	)
	if *tenantsFile != "" {
		table, err = service.LoadTenantTable(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		admission = service.NewTokenBucket(table, nil)
		// A tenant table without an explicit -policy implies the operator
		// wants tenant isolation in scheduling too, not just admission.
		policySet := false
		fs.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })
		if !policySet {
			*policyName = "tenant-fair"
		}
	}
	policy, ok := service.PolicyByName(*policyName)
	if !ok {
		fatal(fmt.Errorf("unknown policy %q", *policyName))
	}
	// The shard lease comes first — before the journal is opened, before
	// any listener binds. A standby blocks here holding nothing, and when
	// the kernel hands it the flock (the primary exited or was killed) it
	// proceeds through the exact same boot: replay the shared journal,
	// bind the ports, serve. That ordering is the failover correctness
	// argument — the journal is never open in two processes at once.
	if *leaseFile != "" {
		lease, err := wal.AcquireLease(*leaseFile, false)
		if err != nil {
			logger.Info("standby: waiting for shard lease", "file", *leaseFile)
			lease, err = wal.AcquireLease(*leaseFile, true)
			if err != nil {
				fatal(err)
			}
		}
		defer lease.Release()
		logger.Info("shard lease acquired", "file", *leaseFile)
	}

	oreg := obs.NewRegistry()
	ready := obs.NewReadiness("fleet-listener", "wal-replay")

	// Open the journal before the registry exists: its records must be
	// replayed into the registry before any listener accepts traffic, and
	// /readyz holds until the replay condition flips.
	var (
		journal   *service.Journal
		walReplay *wal.Replay
	)
	if *walDir != "" {
		fpolicy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			fatal(err)
		}
		wlog, replay, err := wal.Open(wal.Options{
			Dir:          *walDir,
			SegmentBytes: *walSegBytes,
			Fsync:        fpolicy,
			Obs:          oreg,
			Logger:       logger,
		})
		if err != nil {
			fatal(fmt.Errorf("wal open: %w", err))
		}
		defer wlog.Close()
		journal = service.NewJournal(wlog, service.JournalOptions{
			SnapshotEvery: *walSnapshotEvery,
			CompactBytes:  *walCompactBytes,
			Logger:        logger,
		})
		walReplay = replay
		if replay.TornTruncations > 0 {
			logger.Warn("journal had torn segment tails", "truncations", replay.TornTruncations)
		}
	}

	reg := service.New(service.Options{
		Policy:           policy,
		CacheSize:        *cacheSize,
		RetainDone:       *retain,
		MaxTargetPhotons: *maxTarget,
		MaxActiveJobs:    *maxActive,
		Admission:        admission,
		Tenants:          table,
		TraceEvents:      *traceEvents,
		SpanEvents:       *spanEvents,
		Obs:              oreg,
		Logger:           logger,
		Journal:          journal,
	})

	if journal != nil {
		replayed, err := journal.Replay(reg, walReplay.Records)
		if err != nil {
			fatal(fmt.Errorf("wal replay: %w", err))
		}
		if replayed > 0 {
			logger.Info("replayed journaled jobs", "jobs", replayed, "dir", *walDir)
		}
	}
	ready.Set("wal-replay", true)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	ready.Set("fleet-listener", true)
	hl, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	api := service.NewAPI(reg)
	api.MaxBodyBytes = *maxBody
	api.Register(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	debugSrv, err := cli.ServeDebug(mux, *debugAddr, oreg, ready, logger)
	if err != nil {
		fatal(err)
	}
	logger.Info("mcqueue up", "fleet", l.Addr().String(), "http", hl.Addr().String(),
		"policy", policy.Name())

	// On SIGINT/SIGTERM DrainOnSignal only drains the HTTP listeners; the
	// final compaction runs in main, after srv.Serve has returned
	// ErrServerClosed AND the drain has finished — Serve returns the
	// instant Shutdown begins, so compacting from the signal goroutine
	// would race main's exit. No submission is half-processed when the
	// snapshots are cut (the API is drained first), but worker connections
	// on the fleet listener keep reducing result batches meanwhile: each
	// job's snapshot is internally consistent, not fleet-quiesced, and a
	// reduction landing after its job's snapshot is simply recomputed on
	// replay.
	drained := cli.DrainOnSignal(logger, srv, debugSrv)

	go func() {
		if err := reg.Serve(l); err != nil {
			logger.Error("fleet listener failed", "err", err)
		}
	}()
	if err := srv.Serve(hl); err != http.ErrServerClosed {
		fatal(err)
	}
	<-drained
	// The journal already holds everything; the final compaction shrinks it
	// to one snapshot per retained job, so the next boot replays a minimal
	// record set.
	if journal != nil {
		if err := reg.CompactJournal(); err != nil {
			logger.Error("final journal compaction failed", "err", err)
		}
		// Close the journal before the lease is released so a blocked
		// standby never opens a log this process still holds; the deferred
		// wlog.Close then no-ops (Close is idempotent).
		if err := journal.Close(); err != nil {
			logger.Error("journal close failed", "err", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcqueue:", err)
	os.Exit(1)
}
