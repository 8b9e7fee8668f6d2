package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/wal"
)

// scrape fetches url and parses the Prometheus text exposition into a
// map keyed by the full series (name plus label set, exactly as
// rendered), so tests assert on e.g.
// `service_cache_hits_total{index="exact"}`.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: http %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, body)
}

func parseExposition(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// obsServer builds a registry instrumented into its own obs.Registry and
// an HTTP server carrying both the job API and the debug surface on one
// mux — the multiplexed layout cmd/mcqueue defaults to.
func obsServer(t *testing.T, opts Options) (*Registry, *httptest.Server) {
	t.Helper()
	oreg := obs.NewRegistry()
	opts.Obs = oreg
	reg := New(opts)
	ready := obs.NewReadiness("fleet-listener")
	ready.Set("fleet-listener", true)
	mux := http.NewServeMux()
	NewAPI(reg).Register(mux)
	obs.RegisterDebug(mux, oreg, ready)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return reg, ts
}

// TestObsMetricsEndToEnd runs concurrent jobs plus a cached resubmission
// through a fleet and checks the scraped service-plane series against the
// invariants the instrumentation promises: grants cover completions, the
// cache-probe ledger balances, gauges reflect the live fleet, and the
// per-job event trace tells the submitted → granted → completed →
// finalized story.
func TestObsMetricsEndToEnd(t *testing.T) {
	reg, ts := obsServer(t, Options{Policy: FairShare()})
	startWorkers(t, reg, 3)

	specA, specB := slabSpec(5), slabSpec(8)
	const totalA, chunkA, seedA = 3000, 250, 31
	const totalB, chunkB, seedB = 2000, 200, 41

	accA, code := postJob(t, ts, JobRequest{Spec: specA, Photons: totalA, ChunkPhotons: chunkA, Seed: seedA})
	if code != http.StatusCreated {
		t.Fatalf("submit A: http %d", code)
	}
	accB, code := postJob(t, ts, JobRequest{Spec: specB, Photons: totalB, ChunkPhotons: chunkB, Seed: seedB})
	if code != http.StatusCreated {
		t.Fatalf("submit B: http %d", code)
	}
	waitDone(t, ts, accA.ID)
	waitDone(t, ts, accB.ID)

	// Exact-index cache hit: resubmit A verbatim, and get A.
	if dup, code := postJob(t, ts, JobRequest{Spec: specA, Photons: totalA, ChunkPhotons: chunkA, Seed: seedA}); code != http.StatusOK || !dup.Cached || dup.ID != accA.ID {
		t.Fatalf("resubmission: http %d %+v, want job %s, cached", code, dup, accA.ID)
	}

	m := scrape(t, ts.URL+"/metrics")
	st := reg.Stats()

	const wantChunks = totalA/chunkA + totalB/chunkB // 12 + 10
	if got := m["service_chunks_completed_total"]; got != wantChunks {
		t.Fatalf("chunks completed %g, want %d", got, wantChunks)
	}
	if m["service_chunks_granted_total"] < m["service_chunks_completed_total"] {
		t.Fatalf("granted %g < completed %g",
			m["service_chunks_granted_total"], m["service_chunks_completed_total"])
	}
	if got := m["service_jobs_submitted_total"]; got != 2 {
		t.Fatalf("jobs submitted %g, want 2", got)
	}
	if got := m["service_photons_reduced_total"]; got != totalA+totalB {
		t.Fatalf("photons reduced %g, want %d", got, totalA+totalB)
	}

	// The cache-probe ledger balances: every lookup is a hit on exactly one
	// index or a miss.
	hits := m[`service_cache_hits_total{index="exact"}`] + m[`service_cache_hits_total{index="physics"}`]
	if lookups := m["service_cache_lookups_total"]; hits+m["service_cache_misses_total"] != lookups {
		t.Fatalf("cache ledger unbalanced: %g hits + %g misses != %g lookups",
			hits, m["service_cache_misses_total"], lookups)
	}
	if m[`service_cache_hits_total{index="exact"}`] != 1 {
		t.Fatalf("exact hits %g, want 1", m[`service_cache_hits_total{index="exact"}`])
	}

	// Scrape-time gauges agree with Stats().
	if got := m["fleet_workers"]; got != float64(st.Workers) || got != 3 {
		t.Fatalf("fleet_workers %g, stats %d, want 3", got, st.Workers)
	}
	if got := m[`service_jobs{state="done"}`]; got != float64(st.JobsDone) {
		t.Fatalf(`service_jobs{state="done"} %g != stats %d`, got, st.JobsDone)
	}

	// Reduce latency histogram saw every merged group.
	if got := m["service_reduce_seconds_count"]; got == 0 || got != float64(st.TallyMerges) {
		t.Fatalf("reduce histogram count %g, stats report %d merges", got, st.TallyMerges)
	}

	// The debug surface rides the same mux as the API.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: http %d", path, resp.StatusCode)
		}
	}

	// Job A's lifecycle trace: submitted first, then grants and
	// completions for every chunk, finalized, and last the exact hit of
	// its resubmission.
	var evs eventsBody
	if code := getJSON(t, ts.URL+"/jobs/"+accA.ID+"/events", &evs); code != http.StatusOK {
		t.Fatalf("events: http %d", code)
	}
	if evs.Dropped != 0 {
		t.Fatalf("small job dropped %d events", evs.Dropped)
	}
	if len(evs.Events) == 0 || evs.Events[0].Kind != "submitted" {
		t.Fatalf("trace does not open with submitted: %+v", evs.Events)
	}
	if n := len(evs.Events); n < 2 || evs.Events[n-2].Kind != "finalized" ||
		evs.Events[n-1].Kind != "cache-hit" || evs.Events[n-1].Detail != "exact" {
		t.Fatalf("trace does not close with finalized, then the exact hit: %+v", evs.Events)
	}
	counts := map[string]int{}
	for _, e := range evs.Events {
		counts[e.Kind]++
		switch e.Kind {
		case "chunk-granted", "chunk-completed":
			if e.Chunk == nil || *e.Chunk < 0 || *e.Chunk >= totalA/chunkA {
				t.Fatalf("%s event with bad chunk: %+v", e.Kind, e)
			}
			if e.Worker == "" {
				t.Fatalf("%s event without worker: %+v", e.Kind, e)
			}
		case "submitted", "finalized", "cache-hit":
			if e.Chunk != nil {
				t.Fatalf("%s event carries a chunk id: %+v", e.Kind, e)
			}
		}
	}
	if counts["chunk-completed"] != totalA/chunkA {
		t.Fatalf("trace completed %d chunks, want %d", counts["chunk-completed"], totalA/chunkA)
	}
	if counts["chunk-granted"] < counts["chunk-completed"] {
		t.Fatalf("trace granted %d < completed %d",
			counts["chunk-granted"], counts["chunk-completed"])
	}
}

// TestObsShedOverCapacity pins the -max-active-jobs admission behaviour:
// over the cap POST /jobs sheds with 429 + Retry-After and the shed
// counter moves, while coalescing and cache hits bypass the active-jobs
// cap (they add no job; with no token-bucket policy they shed nowhere).
func TestObsShedOverCapacity(t *testing.T) {
	_, ts := obsServer(t, Options{MaxActiveJobs: 1})

	// No workers: the first job camps on the only active slot.
	acc, code := postJob(t, ts, JobRequest{Spec: slabSpec(5), Photons: 1000, ChunkPhotons: 100, Seed: 7})
	if code != http.StatusCreated {
		t.Fatalf("submit: http %d", code)
	}

	// A distinct second job is shed — raw request so the header is visible.
	body, _ := json.Marshal(JobRequest{Spec: slabSpec(9), Photons: 1000, ChunkPhotons: 100, Seed: 8})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: http %d, want 429", resp.StatusCode)
	}
	// One active job against the cap → a one-second, depth-derived wait
	// (the deeper-backlog shape is pinned in TestHTTPRetryAfterShapes).
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After %q, want %q", got, "1")
	}

	// Coalescing with the active job does not count against the cap.
	dup, code := postJob(t, ts, JobRequest{Spec: slabSpec(5), Photons: 1000, ChunkPhotons: 100, Seed: 7})
	if code != http.StatusOK || !dup.Coalesced {
		t.Fatalf("coalesced resubmission shed: http %d %+v", code, dup)
	}
	if dup.ID != acc.ID {
		t.Fatalf("coalesced onto %s, want %s", dup.ID, acc.ID)
	}

	m := scrape(t, ts.URL+"/metrics")
	if got := m[`service_jobs_shed_total{reason="cap"}`]; got != 1 {
		t.Fatalf(`jobs shed{reason="cap"} %g, want 1`, got)
	}
	if got := m[`service_tenant_jobs_shed_total{tenant="default"}`]; got != 1 {
		t.Fatalf("default-tenant shed %g, want 1", got)
	}
	if got := m["service_jobs_submitted_total"]; got != 1 {
		t.Fatalf("jobs submitted %g, want 1", got)
	}
}

// TestObsResumeNotCountedAsSubmit pins the resume accounting: a journaled
// job restored by replay — from its snapshot, or from its accept record
// alone — moves the replayed counter and its tenant's resumed one, never
// the submitted ones, and the scraped series agree with the Stats rollup.
func TestObsResumeNotCountedAsSubmit(t *testing.T) {
	seed := New(Options{})
	out, err := seed.Submit(JobSpec{
		Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 9, Tenant: "carol",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := acceptedSpec(out.Job)
	accept, err := encodeAcceptRec(out.Job.key, &spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, records := range map[string][]wal.Record{
		"snapshot": {{Type: wal.RecJobAccepted, Data: accept},
			{Type: wal.RecSnapshot, Data: snapshotRecord(out.Job)}},
		"accept only": {{Type: wal.RecJobAccepted, Data: accept}},
	} {
		t.Run(name, func(t *testing.T) {
			wl, _, err := wal.Open(wal.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer wl.Close()
			jl := NewJournal(wl, JournalOptions{})
			reg, ts := obsServer(t, Options{Journal: jl})
			if restored, err := jl.Replay(reg, records); err != nil || restored != 1 {
				t.Fatalf("replay restored %d jobs (%v), want 1", restored, err)
			}
			m := scrape(t, ts.URL+"/metrics")
			if got := m["service_jobs_replayed_total"]; got != 1 {
				t.Fatalf("jobs replayed %g, want 1", got)
			}
			if got := m["service_jobs_submitted_total"]; got != 0 {
				t.Fatalf("resume leaked into jobs submitted: %g", got)
			}

			// A fresh submission moves submitted, not replayed.
			if _, code := postJob(t, ts, JobRequest{Spec: slabSpec(8), Photons: 100, ChunkPhotons: 100, Seed: 10}); code != http.StatusCreated {
				t.Fatalf("fresh submit: http %d", code)
			}
			m = scrape(t, ts.URL+"/metrics")
			st := reg.Stats()
			if m["service_jobs_submitted_total"] != float64(st.JobsSubmitted) || st.JobsSubmitted != 1 {
				t.Fatalf("submitted: scrape %g, stats %d, want 1",
					m["service_jobs_submitted_total"], st.JobsSubmitted)
			}
			if m["service_jobs_replayed_total"] != float64(st.JobsReplayed) || st.JobsReplayed != 1 {
				t.Fatalf("replayed: scrape %g, stats %d, want 1",
					m["service_jobs_replayed_total"], st.JobsReplayed)
			}
			// The accept record carried its tenant through, and the rollup
			// counts the restore as a resume.
			if c := st.Tenants["carol"]; c.Resumed != 1 || c.Submitted != 0 {
				t.Fatalf("carol rollup %+v, want resumed 1, submitted 0", c)
			}
		})
	}
}
