# Developer entry points. CI runs the same steps (see .github/workflows).

GO ?= go

# VERSION is stamped into the binaries (and surfaced as the mc_build_info
# metric and the worker's telemetry report) via -ldflags -X.
VERSION ?= $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -X repro/internal/obs.Version=$(VERSION)

.PHONY: build test race short bench-check kernel-bench kernel-pair keys-bench submit-bench cover fmt vet loc gob-check inline-check fuzz-smoke obs-smoke crash-smoke shard-smoke

# MEDIAN is the one awk median every benchmark summary below shares: the
# median of v[k, 1], …, v[k, c]. A key of several subscripts is joined with
# SUBSEP, so median(k SUBSEP "t", c) reads v[k, "t", 1..c].
MEDIAN = function median(k, c,   i, j, t, a) { for (i = 1; i <= c; i++) a[i] = v[k, i]; \
	for (i = 1; i <= c; i++) for (j = i + 1; j <= c; j++) if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t } \
	return c % 2 ? a[(c + 1) / 2] : (a[c / 2] + a[c / 2 + 1]) / 2 }

# KERNEL_CHUNKS selects the four chunk benchmarks kernel-bench and
# kernel-pair time: one bulk-head chunk, layered and voxelised, one
# grid-results chunk and one tenant-mix slab chunk.
KERNEL_CHUNKS = ^BenchmarkVoxelTraversal$$/^(bulk-head-|grid-results-|tenant-mix-)

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# race runs the suite under the race detector, then the dispatcher's park /
# wake / drain tests, the result plane's grant-is-batch tests, the
# reducer's verdict table and timeline (a cancel racing a group's merge
# among its rows), the chunk books after a late result, a reclaim's
# requeue order and the stats-vs-metrics books (chunk books of a replayed
# job among them), the content-key index's repeat / finish→seal / retention
# tests, the multi-core grant tests (mc.Runner.RunChunks'
# stop-and-claim, a worker's grant on one, two and four cores, its chunk
# budgets), units of three configs sharing the kernels' scratch pool on two
# cores, and a session's descriptor eviction twenty more times in
# shuffled order: a lost wake-up is a rare interleaving (and parkMax heals
# it within a second, so nothing hangs to give it away), a job stays in
# byKey across its seal and until its eviction, and a unit claimed after
# stop closes is a race of the kernels — repetition is the cheap detector.
# The first line's timeout is explicit: on a 2-CPU host internal/mc alone
# takes ~11 min under race (the whole line ~15.5), past go test's 10-minute
# default.
race:
	$(GO) test -race -short -shuffle=on -timeout 30m ./...
	$(GO) test -race -shuffle=on -run 'Park|Dispatch|Drain|BatchIsItsGrant|ChunkVerdict|ReclaimedChunkQueuedOnce|ReclaimRequeues|RegrantedChunk|ChunkRowSize|BooksAgree|Repeat|FinishAndSeal|RetainDone|GrantBatch|ParallelGrants|RunChunks|SharedScratch|DescriptorCache' -count=20 ./internal/service ./internal/distsys ./internal/mc

# bench-check vets and tests the nested benchmark module (bench/, its own
# go.mod with `replace repro => ../`). The root's build and tests never
# compile it, so without this a root refactor can break a bench import
# unnoticed. Running the benchmark itself is `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# kernel-bench is the minute-long loop a kernel change is developed against
# before the 15-minute paired protocol of bench/: one 230-photon chunk of
# the bulk-head workload's geometry per op, layered and voxelised
# (BenchmarkVoxelTraversal's bulk-head sub-benchmarks), six runs each, and
# the median ns/photon of both with their ratio — DESIGN.md's
# voxel-over-layered figure — and of the grid-results workload's chunk (the
# layered head scoring a 50³ path grid), the kernel-bound workload a kernel
# claim is paired on, and of tenant-mix's 64-photon slab chunk (the slab
# path); beside each, the chunk's transport events (scatterings plus
# boundary crossings) per photon and the ns per event they make. Then one
# worker grant of eight 64-photon slab chunks (BenchmarkWorkerGrant) on one
# core and on two, six runs each, and the median time of both with their
# ratio: about 2 on an idle two-core host, and about 1 when the grant's
# kernels write to a shared cache line. CI runs them all once so they
# cannot rot.
kernel-bench:
	@$(GO) test -run '^$$' -bench '$(KERNEL_CHUNKS)' -benchtime 20x -count 6 . | awk '$(MEDIAN) \
		/ns\/photon/ { split($$1, name, "/"); sub(/-[0-9]+$$/, "", name[2]); k = name[2]; n[k]++; \
			for (i = 2; i <= NF; i++) { if ($$i == "ns/photon") v[k, n[k]] = $$(i-1); if ($$i == "events/photon") e[k] = $$(i-1) } } \
		function show(label, k,   m) { m = median(k, n[k]); \
			printf "%s %.0f ns/photon  %.1f events/photon  %.0f ns/event\n", label, m, e[k], m / e[k] } \
		END { if (!n["bulk-head-layered"] || !n["bulk-head-voxel"] || !n["grid-results-layered"] || !n["tenant-mix-slab"] || \
				!e["bulk-head-layered"] || !e["bulk-head-voxel"] || !e["grid-results-layered"] || !e["tenant-mix-slab"]) { print "kernel-bench: benchmarks did not run"; exit 1 } \
			show("layered", "bulk-head-layered"); show("voxel", "bulk-head-voxel"); \
			printf "voxel/layered %.2f  (medians of %d)\n", median("bulk-head-voxel", n["bulk-head-voxel"]) / \
				median("bulk-head-layered", n["bulk-head-layered"]), n["bulk-head-voxel"]; \
			show("grid-results layered", "grid-results-layered"); show("tenant-mix slab", "tenant-mix-slab") }'
	@$(GO) test -run '^$$' -bench '^BenchmarkWorkerGrant$$' -cpu 1,2 -count 6 ./internal/distsys | awk '$(MEDIAN) \
		/ns\/op/ { p = 1; if (match($$1, /-[0-9]+$$/)) p = substr($$1, RSTART + 1); \
			for (i = 2; i <= NF; i++) if ($$i == "ns/op") v[p, ++n[p]] = $$(i-1) } \
		END { if (!n[1] || !n[2]) { print "kernel-bench: BenchmarkWorkerGrant did not run"; exit 1 } \
			one = median(1, n[1]); two = median(2, n[2]); \
			printf "8x64-photon grant  1 core %.2f ms  2 cores %.2f ms  speed-up %.2f  (medians of %d)\n", one / 1e6, two / 1e6, one / two, n[2] }'

# kernel-pair is the paired form of kernel-bench's four chunk
# benchmarks, the check a kernel claim needs: one session's medians swing
# by ±15 % on a 2-CPU host. It builds the root package's test binary of REF
# (from git archive, in a temporary directory removed on exit) and of the
# working tree, runs both PAIRS times (-benchtime 20x), alternating which
# runs first, and prints for each chunk shape both medians of ns/photon,
# the change's Δ, REF's IQR (Tukey's hinges), the pairs the change won and
# a verdict: "gain" only when it won at least 9 of 10 pairs and its Δ
# exceeds REF's IQR, "loss" the same the other way, else "within noise" —
# or "unresolved" under 10 pairs. CI runs an A/A smoke of it: make
# kernel-pair REF=HEAD PAIRS=1.
PAIRS ?= 10
kernel-pair:
	@REF='$(REF)' PAIRS='$(PAIRS)' GO='$(GO)' BENCH='$(KERNEL_CHUNKS)' MEDIAN='$(MEDIAN)' ./scripts/kernel-pair.sh

# keys-bench is the same loop for the submit path's key derivation: one
# service.RoutingKeys per op — normalize, one canonical walk of the spec,
# two SHA-256 states — on the benchmark's three body kinds
# (BenchmarkRoutingKeys), six runs each, and the median time and bytes
# allocated per op. The voxel head is the one that matters: both HTTP tiers
# pay it per voxel submission. CI runs the three once so they cannot rot.
keys-bench:
	@$(GO) test -run '^$$' -bench '^BenchmarkRoutingKeys$$' -count 6 ./internal/service | awk '$(MEDIAN) \
		/ns\/op/ { split($$1, name, "/"); sub(/-[0-9]+$$/, "", name[2]); k = name[2]; n[k]++; \
			for (i = 2; i <= NF; i++) { if ($$i == "ns/op") v[k, "t", n[k]] = $$(i-1); if ($$i == "B/op") v[k, "b", n[k]] = $$(i-1) } } \
		function med(k, m) { return median(k SUBSEP m, n[k]) } \
		END { if (!n["slab"] || !n["head"] || !n["voxel-head"]) { print "keys-bench: benchmarks did not run"; exit 1 } \
			printf "slab %.1f us %.0f B/op  head %.1f us %.0f B/op  voxel-head %.2f ms %.0f B/op  (medians of %d)\n", \
				med("slab", "t") / 1e3, med("slab", "b"), med("head", "t") / 1e3, med("head", "b"), \
				med("voxel-head", "t") / 1e6, med("voxel-head", "b"), n["voxel-head"] }'

# submit-bench is the same loop for a voxel submission's way into a shard
# and onto a worker: the benchmark's 120×120×80 head read as a client's JSON
# and as the compact form a gateway forwards (service.ReadSubmission), its
# journal accept record encoded and decoded (BenchmarkSubmitVoxel), and the
# traversal accelerator a worker's first chunk on the grid waits for
# (BenchmarkSafeRadius/head) — six runs each, median time and bytes
# allocated per op. CI runs the five once so they cannot rot.
submit-bench:
	@{ $(GO) test -run '^$$' -bench '^BenchmarkSubmitVoxel$$' -count 6 ./internal/service; \
	   $(GO) test -run '^$$' -bench '^BenchmarkSafeRadius$$/^head$$' -count 6 ./internal/voxel; } | awk '$(MEDIAN) \
		/ns\/op/ { split($$1, name, "/"); sub(/-[0-9]+$$/, "", name[2]); k = name[2]; n[k]++; \
			for (i = 2; i <= NF; i++) { if ($$i == "ns/op") v[k, "t", n[k]] = $$(i-1); if ($$i == "B/op") v[k, "b", n[k]] = $$(i-1) } } \
		function med(k, m) { return median(k SUBSEP m, n[k]) } \
		END { split("json-decode compact-decode accept-encode accept-decode head", want, " "); \
			for (i = 1; i <= 5; i++) if (!n[want[i]]) { print "submit-bench: " want[i] " did not run"; exit 1 } \
			for (i = 1; i <= 5; i++) printf "%s %.2f ms %.0f B/op  ", (want[i] == "head" ? "safe-radius" : want[i]), \
				med(want[i], "t") / 1e6, med(want[i], "b"); \
			printf "(medians of %d)\n", n["head"] }'

# obs-smoke boots a real mcqueue + mcworker pair, submits a job with curl
# and asserts the debug surface (/readyz, /metrics series, the per-job
# event trace and spans, /fleet telemetry, mctop -once, pprof, SIGTERM
# drain) from the outside.
obs-smoke:
	./scripts/obs-smoke.sh

# crash-smoke SIGKILLs a real journal-armed mcqueue at a WAL crashpoint,
# restarts it on the same journal, and asserts the accepted job survives
# under its original ID, completes, and that SIGTERM compacts the journal.
crash-smoke:
	./scripts/crash-smoke.sh

# shard-smoke boots the sharded control plane for real — mcgate over two
# journaled mcqueue shards, one with a flock-lease standby — SIGKILLs a
# shard primary mid-run, and asserts zero accepted-job loss: the standby
# replays the journal and takes over, every job finishes under its
# original ID through the gateway, and the tallies are byte-identical to
# a single-node reference run.
shard-smoke:
	./scripts/shard-smoke.sh

# fuzz-smoke gives each outside-facing decoder ten seconds of
# coverage-guided input on top of its committed corpus — the wire decoder
# (seeded with v10 frames, batch-carrying task requests among them, the v9,
# v8 and v7 frames as they were written, whose hellos decode to their
# version alone, and the retired gob frames of v6 and before it must
# refuse), the HTTP submit
# decoder (seeded with
# scripts/genjob bodies), the journal's accept and snapshot record decoders
# (seeded with their own records of four job shapes), the compact tally
# codec under all of them (seeded with every section shape and with headers
# that over-claim) and the gateway→shard submission (seeded with the same
# four jobs, a bare-JSON payload and tails that miss the grid's size) and
# the tally-file reader mcmerge runs on whatever it is handed (seeded in the
# test with a file, a cut one and a gob file of the first format) — enough
# to catch a decode regression without stalling CI.
fuzz-smoke:
	$(GO) test ./internal/protocol -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzDecodeJobRequest -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzDecodeJournalRecord -fuzztime 10s
	$(GO) test ./internal/mc -run '^$$' -fuzz FuzzDecodeTally -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzDecodeSubmission -fuzztime 10s
	$(GO) test ./internal/report -run '^$$' -fuzz FuzzReadReport -fuzztime 10s

# cover enforces the same coverage floor as CI (keep COVER_FLOOR in sync
# with .github/workflows/ci.yml).
COVER_FLOOR ?= 71
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub("%","",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) { printf "coverage %s%% below floor %s%%\n", t, f; exit 1 } }'

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# loc prints the size figure ROADMAP and CHANGES quote: lines of non-test
# Go outside the nested benchmark module. A deletion round is judged by it
# (comments and blank lines count; test, data and bench/ files do not).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# gob-check pins where encoding/gob may be imported outside tests: nowhere.
# Since protocol v7 the worker wire and the tally files are hand-framed like
# every other internal hop, and tests alone keep gob, to build the retired
# frames and files the decoders must refuse. gob's type ids come from a
# process-global counter, so its bytes depend on what the process encoded
# before — the key-instability bug of PR 9 when it reached content keys —
# and its decoder is driven by reflection over whatever a peer sends. This
# keeps it from drifting back.
GOB_IMPORTERS =
gob-check:
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"encoding/gob"' . | sed 's|^\./||' | sort | xargs); \
	want="$(strip $(GOB_IMPORTERS))"; \
	if [ "$$got" != "$$want" ]; then \
		echo "gob-check: non-test importers of encoding/gob are [ $$got ], want [ $$want ]"; exit 1; \
	fi

# inline-check pins what keeps the transport loops register-resident: each
# piece on their scatter path — the generator step on its State, the
# ziggurat's quick accept, one round of the azimuth's rejection, the bits to
# a uniform, the state in and out of a Rand, the spin's f, g and rotation,
# the Henyey–Greenstein cosine — compiles inline (-gcflags=-m reports "can
# inline"), and both loops (trace in kernel.go, traceLayered in
# kernel_layered.go) inline every one. A call left in the loop spills its
# live state on every event — Go's calling convention keeps no register
# across a call — so an edit that pushes a piece over the inliner's budget
# would give back the loops' speed without a test noticing.
INLINE_PIECES = rng.State.Next rng.StepFast rng.AzimuthTry rng.Unit rng.(*Rand).State rng.(*Rand).SetState \
	vec.ScatterFG vec.Rotate mc.(*regionOpt).sampleHG
inline-check:
	@$(GO) build -gcflags=-m ./internal/rng ./internal/vec ./internal/mc 2>&1 | awk -v pieces='$(INLINE_PIECES)' ' \
		/: can inline / { split($$1, f, "/"); can[f[2] "." $$4] = 1 } \
		/: inlining call to / { split($$1, f, "/"); split(f[3], g, ":"); called[g[1], $$5] = 1 } \
		END { n = split(pieces, p, " "); bad = 0; \
			for (i = 1; i <= n; i++) { pkg = p[i]; sub(/\..*/, "", pkg); call = pkg == "mc" ? substr(p[i], 4) : p[i]; \
				if (!can[p[i]]) { print "inline-check: " p[i] " is not inlinable"; bad = 1 } \
				if (!called["kernel.go", call]) { print "inline-check: trace (internal/mc/kernel.go) does not inline " p[i]; bad = 1 } \
				if (!called["kernel_layered.go", call]) { print "inline-check: traceLayered (internal/mc/kernel_layered.go) does not inline " p[i]; bad = 1 } } \
			if (bad) exit 1; printf "inline-check: %d pieces inline into both transport loops\n", n }'
