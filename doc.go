// Package phomc is a distributed Monte Carlo simulator of light transport
// in tissue, reproducing Page, Coyle et al., "Distributed Monte Carlo
// Simulation of Light Transportation in Tissue" (IPPS 2006).
//
// Photon packets are traced through a pluggable Geometry (hop–drop–spin
// with Henyey–Greenstein scattering, Fresnel refraction and internal
// reflection at medium boundaries, Russian roulette), scored on
// user-defined 3-D grids and surface detectors with optional pathlength
// gating, and the work can be fanned out over goroutines or a
// DataManager/worker cluster with exactly-once, order-independent
// reduction.
//
// Two geometries ship with the package: the paper's layered slab models
// (the fast path, installed automatically when Config.Model is set) and
// heterogeneous voxel grids (VoxelGrid) supporting arbitrary inclusions —
// tumours, boxes, tilted layers — via DDA traversal. Both are plain data,
// so either kind of job travels over the wire protocol and runs on the
// cluster.
//
// # Quick start
//
//	cfg := &phomc.Config{
//		Model:    phomc.AdultHead(),
//		Source:   phomc.PencilSource(),
//		Detector: phomc.DiskDetector(20, 2.5),
//	}
//	tally, err := phomc.RunParallel(cfg, 1_000_000, 42, 0)
//	if err != nil { ... }
//	fmt.Println("DPF:", tally.DPF(20))
//
// # Heterogeneous media
//
// Voxelize a layered model (or start from a homogeneous NewVoxelGrid),
// paint inclusions into it, and trace through Config.Geometry:
//
//	g, _ := phomc.VoxelizeModel(phomc.AdultHead(), 120, 120, 80, 1, 1, 0.5)
//	tumour, _ := g.AddMedium("tumour", phomc.TransportProperties(2, 0.9, 0.3, 1.4))
//	g.PaintSphere(tumour, 0, 0, 14, 5)
//	tally, err := phomc.RunParallel(&phomc.Config{Geometry: g}, 1_000_000, 42, 0)
//
// See examples/inclusion for the full perturbation workflow.
//
// # Multi-job simulation service
//
// Beyond one-shot runs, the service layer (cmd/mcqueue) keeps a long-lived
// JobRegistry of many concurrent simulations sharing one worker fleet:
// idle workers pull chunks of whichever job a pluggable policy picks
// (FIFO, priority, or weighted fair-share), results route back by JobID,
// jobs are content-addressed so resubmitting an identical job returns the
// job that ran it, instantly, and everything is driven over an HTTP JSON
// API:
//
//	reg := phomc.NewJobRegistry(phomc.RegistryOptions{Policy: phomc.FairSharePolicy()})
//	go reg.Serve(fleetListener)                           // mcworker clients attach here
//	go http.Serve(apiListener, phomc.NewServiceHandler(reg))
//	// curl -X POST :8080/jobs -d '{"spec":{...},"photons":1e6,"chunkPhotons":5e4,"seed":1}'
//	// curl :8080/jobs/{id}        → progress   curl :8080/jobs/{id}/result → tally
//	// curl :8080/stats            → fleet/queue/cache health
//
// mcserver remains the single-job CLI (a one-job registry that drains its
// fleet on completion).
//
// # Crash durability
//
// Both binaries persist through one mechanism, on by default. mcqueue
// (-wal-dir, default mcqueue-wal) writes what a restart reads back —
// three self-contained record kinds: job accepted (the JobSpec as JSON),
// amortized tally snapshots (a finished job's last one is its result),
// cancel — to a segmented, CRC32C-framed write-ahead journal
// (internal/wal). After a SIGKILL, OOM-kill or power cut, the restart
// replays the journal before /readyz flips: accepted jobs come back under
// their original IDs, finished jobs answer their repeats again, and
// anything reduced since the last snapshot is recomputed — chunk tallies
// are pure functions of (seed, stream, fan), a chunk's id being its
// stream — so the resumed tally is byte-identical to an uninterrupted
// run's. A journal written before the three-kind schema is refused at
// startup with an error naming the remedy, never half-replayed. -wal-fsync picks the durability/latency
// trade (always, interval, none), SIGTERM compacts the journal to one
// accept + snapshot per job, and a fault-injection harness
// (internal/fault, TestCrashChaosEndToEnd, make crash-smoke) proves the
// contract by SIGKILLing the real binary at armed crashpoints inside the
// journal's append, rotation and compaction windows. mcserver (-journal)
// and a DataManager given JobOptions.JournalDir journal their one job the
// same way: rerun with the same job and directory and it resumes by
// itself, a directory holding another job is refused, completion removes
// it.
//
// # Adaptive precision
//
// A job may carry a PrecisionTarget instead of a fixed photon budget —
// "diffuse reflectance to 1% relative standard error" — the standard
// Monte Carlo stopping rule. With Spec.TrackMoments set, every chunk
// tally carries second moments of the headline observables (one weighted
// sample per chunk; Tally.Moments), so any partial reduction yields an
// unbiased standard-error estimate in any merge order. The registry
// issues chunks open-endedly, re-estimates the RSE as batches land, and
// finalizes the job the moment the target is met, normalizing by the
// photons actually simulated; GET /jobs/{id} reports the live estimate
// ± CI and photons spent, and RunAdaptive is the local equivalent:
//
//	tgt := phomc.PrecisionTarget{Observable: phomc.ObsDiffuse, RelErr: 0.01}
//	tally, err := phomc.RunAdaptive(cfg, tgt, 42, 10_000, 0)
//	est, ci := tally.EstimateCI(phomc.ObsDiffuse)
//
// One caveat is structural: the rule tests an *estimated* variance, and
// stopping on a noisy estimate selects for optimistic draws — stop too
// early and the reported CI is overconfident. Target.MinPhotons is the
// guard: it defers the first RSE test until enough chunks (16 by
// default) back the estimate; raise it when targeting a precision barely
// reachable at the floor. Zero-mean observables never meet a relative
// target, so Target.MaxPhotons (operator-cappable) bounds every run.
// See DESIGN.md's "Adaptive precision" section and examples/adaptive.
//
// # Result plane
//
// The distributed result path is engineered so that fleet throughput
// tracks kernel throughput rather than per-chunk bookkeeping: a worker's
// task request asks for up to a window of chunks of one job, the worker
// computes them side by side, one per core (a job with a fan width splits
// each chunk across jump-separated sub-streams, RunStreamFan, and the
// cores take those one by one across the grant), pre-reduces the grant in grant order into one tally — the
// same bytes whatever the core count — and hands that
// batch back on its next task request — the only frame a result travels in
// since protocol v6 — with tallies encoded by a sparse binary codec inside
// a hand-written frame (protocol v10: a grant names a chunk id, which is
// the chunk's RNG stream, and its photons) and per-chunk acks preserving the
// exactly-once reduction under timeout reassignment. The registry merges each decoded batch outside its
// dispatch lock via a per-job reducer. See DESIGN.md's "Result plane"
// section for the wire layout and invariants.
//
// # Fleet introspection
//
// The service answers not just "how much" (Prometheus-style /metrics,
// structured logs, per-job lifecycle traces at /jobs/{id}/events with
// ?kind= and ?since= filters) but "who" and "where the time went": a
// worker's Hello carries its build string, and the registry measures each
// session's speed itself, a grant's photons over its grant-to-arrival
// time, serving both at GET /fleet (FleetSession); every daemon's /metrics
// carries its goroutines and heap. The registry joins its own
// queued/granted/arrival stamps with the worker-reported compute time
// into per-chunk spans (ChunkSpan: queue,
// wire, compute and reduce segments, fed into aggregate histograms), and
// records each span once, on its chunk's chunk-completed event: the job's
// one event ring is its timeline, /jobs/{id}/events shows the segments on
// those events and /jobs/{id}/spans lists them alone. cmd/mctop renders
// the whole plane as a live terminal dashboard. See DESIGN.md's "Fleet
// introspection" section.
//
// # Performance
//
// The per-photon hot path is allocation-free and trig-free: exponential
// steps come from a ziggurat sampler, azimuths from polar rejection,
// per-region optical constants from tables built once per run, and layered
// stacks trace through a devirtualised fast path while voxel grids fuse
// same-medium DDA runs via a precomputed safe-radius map. Committed golden
// tallies (internal/mc/testdata) pin the physics bit-for-bit, and
// statistical gates prove the specialised paths equivalent to the
// reference tracer; see DESIGN.md's "Performance" section. cmd/mcbench
// writes the machine-readable throughput snapshot (BENCH_pr4.json).
//
// The library is organised as a thin facade over focused internal packages;
// see DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-figure reproductions.
package phomc
