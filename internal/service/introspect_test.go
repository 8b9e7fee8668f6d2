package service

import (
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/protocol"
)

// TestSpanJoinAndFleetProfile drives one session through the dispatch and
// reduction path by hand, with a known telemetry report and known
// per-chunk timings, and checks the joined artifacts deterministically:
// the span's compute segment is exactly the worker-reported duration (and
// exactly the batch share when the worker reported none), and GET /fleet
// carries the report verbatim next to the server-side profile.
func TestSpanJoinAndFleetProfile(t *testing.T) {
	reg, ts := obsServer(t, Options{})
	sess := reg.registerSession(&protocol.Hello{Name: "probe", Mflops: 120}, "10.9.8.7:1234")
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 2, ChunkPhotons: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job

	rep := &protocol.WorkerReport{
		PhotonsPerSec: 5000, ChunkSecs: 0.25, EncodeSecs: 0.001,
		Goroutines: 7, HeapBytes: 1 << 20, Version: "test-build",
	}
	var cfg *mc.Config
	var meta protocol.Job
	runChunk := func(req *protocol.TaskRequest, elapsed time.Duration, secs []float64) {
		t.Helper()
		msg := reg.nextAssignment(sess, req)
		if msg.Type != protocol.MsgTaskAssign {
			t.Fatalf("expected an assignment, got %v", msg.Type)
		}
		a := grantOf(msg.Assign, 0)
		if job := msg.Assign.Job; job != nil {
			meta = *job
			var err error
			if cfg, err = job.Spec.Build(); err != nil {
				t.Fatal(err)
			}
		}
		if cfg == nil {
			t.Fatal("assignment for a job whose spec was never sent")
		}
		tally, err := mc.RunStreamFan(cfg, a.Photons, meta.Seed, a.Stream, meta.Streams, meta.Fan)
		if err != nil {
			t.Fatal(err)
		}
		acks := reg.reduceGroup(sess, a.JobID, []int{a.ChunkID}, tally, elapsed, secs)
		if len(acks) != 1 || acks[0].Rejected {
			t.Fatalf("chunk not reduced cleanly: %+v", acks)
		}
	}

	// Chunk 1: worker-reported per-chunk timing wins over the batch share.
	runChunk(&protocol.TaskRequest{Want: 1, Report: rep}, 300*time.Millisecond, []float64{0.25})
	// Chunk 2: no timings — compute falls back to elapsed / len(chunks).
	// (The job spec is already known; KnownJobs keeps the assign lean.)
	runChunk(&protocol.TaskRequest{Want: 1, KnownJobs: []uint64{j.ID()}}, 100*time.Millisecond, nil)

	spans, dropped := j.Spans()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("got %d spans, %d dropped", len(spans), dropped)
	}
	if spans[0].Compute != 250*time.Millisecond {
		t.Fatalf("span 1 compute %v, want the reported 250ms exactly", spans[0].Compute)
	}
	if spans[1].Compute != 100*time.Millisecond {
		t.Fatalf("span 2 compute %v, want the batch share 100ms exactly", spans[1].Compute)
	}
	for i, sp := range spans {
		if sp.Worker != "probe" || sp.Granted.IsZero() {
			t.Fatalf("span %d lost its attribution: %+v", i, sp)
		}
		if sp.Queue < 0 || sp.Wire < 0 || sp.Reduce <= 0 {
			t.Fatalf("span %d has impossible segments: %+v", i, sp)
		}
	}

	fleet := reg.Fleet()
	if len(fleet) != 1 {
		t.Fatalf("fleet has %d sessions, want 1", len(fleet))
	}
	w := fleet[0]
	if w.Name != "probe" || w.Remote != "10.9.8.7:1234" || w.Mflops != 120 {
		t.Fatalf("session identity wrong: %+v", w)
	}
	if w.ReportedPhotonsPerSec != 5000 || w.ChunkSeconds != 0.25 ||
		w.Goroutines != 7 || w.HeapBytes != 1<<20 || w.Version != "test-build" {
		t.Fatalf("worker report not folded into profile: %+v", w)
	}
	if w.ChunksCompleted != 2 {
		t.Fatalf("completed %d chunks, want 2", w.ChunksCompleted)
	}
	if w.InferredPhotonsPerSec <= 0 {
		t.Fatalf("no inferred throughput after two reductions: %+v", w)
	}
	if w.LastSeen.Before(w.Connected) {
		t.Fatalf("lastSeen precedes connect: %+v", w)
	}

	// The same profile over HTTP, and the spans with seconds-valued
	// segments.
	var fb FleetBody
	if code := getJSON(t, ts.URL+"/fleet", &fb); code != http.StatusOK {
		t.Fatalf("GET /fleet: http %d", code)
	}
	if len(fb.Workers) != 1 || fb.Workers[0].ReportedPhotonsPerSec != 5000 {
		t.Fatalf("GET /fleet body: %+v", fb)
	}
	var sb spansBody
	if code := getJSON(t, ts.URL+"/jobs/"+out.Job.Status().IDHex+"/spans", &sb); code != http.StatusOK {
		t.Fatalf("GET spans: http %d", code)
	}
	if len(sb.Spans) != 2 || sb.Spans[0].ComputeSeconds != 0.25 {
		t.Fatalf("GET spans body: %+v", sb)
	}

	// The aggregate histograms observed every segment of both spans.
	m := scrape(t, ts.URL+"/metrics")
	for _, series := range []string{
		"service_span_queue_seconds_count", "service_span_wire_seconds_count",
		"service_span_compute_seconds_count", "service_span_reduce_seconds_count",
	} {
		if m[series] != 2 {
			t.Fatalf("%s = %g, want 2", series, m[series])
		}
	}
}

// TestSpanRingDisabled: SpanEvents < 0 must disable per-job span
// retention without touching the reduction path or the histograms.
func TestSpanRingDisabled(t *testing.T) {
	reg, ts := obsServer(t, Options{SpanEvents: -1})
	startWorkers(t, reg, 2)
	acc, code := postJob(t, ts, JobRequest{Spec: slabSpec(4), Photons: 800, ChunkPhotons: 200, Seed: 5})
	if code != http.StatusCreated {
		t.Fatalf("submit: http %d", code)
	}
	waitDone(t, ts, acc.ID)
	var sb spansBody
	if code := getJSON(t, ts.URL+"/jobs/"+acc.ID+"/spans", &sb); code != http.StatusOK {
		t.Fatalf("GET spans: http %d", code)
	}
	if len(sb.Spans) != 0 {
		t.Fatalf("span recording disabled but %d spans retained", len(sb.Spans))
	}
	if m := scrape(t, ts.URL+"/metrics"); m["service_span_compute_seconds_count"] != 4 {
		t.Fatalf("aggregate histograms must observe regardless: %g", m["service_span_compute_seconds_count"])
	}
}

// TestHTTPEventsFilters pins the server-side ?kind= and ?since= filtering
// of the lifecycle trace, including the 400s on malformed filters.
func TestHTTPEventsFilters(t *testing.T) {
	reg, ts := obsServer(t, Options{})
	startWorkers(t, reg, 2)
	const chunks = 4
	acc, code := postJob(t, ts, JobRequest{Spec: slabSpec(6), Photons: 1200, ChunkPhotons: 300, Seed: 9})
	if code != http.StatusCreated {
		t.Fatalf("submit: http %d", code)
	}
	waitDone(t, ts, acc.ID)
	base := ts.URL + "/jobs/" + acc.ID + "/events"

	var all eventsBody
	if code := getJSON(t, base, &all); code != http.StatusOK {
		t.Fatalf("GET events: http %d", code)
	}
	wantCompleted := 0
	for _, e := range all.Events {
		if e.Kind == "chunk-completed" {
			wantCompleted++
		}
	}
	if wantCompleted != chunks {
		t.Fatalf("trace has %d completions, want %d", wantCompleted, chunks)
	}

	var comp eventsBody
	if code := getJSON(t, base+"?kind=chunk-completed", &comp); code != http.StatusOK {
		t.Fatalf("GET events?kind=: http %d", code)
	}
	if len(comp.Events) != wantCompleted {
		t.Fatalf("kind filter kept %d events, want %d", len(comp.Events), wantCompleted)
	}
	for _, e := range comp.Events {
		if e.Kind != "chunk-completed" {
			t.Fatalf("kind filter leaked a %q event", e.Kind)
		}
	}

	// since= keeps strictly-newer events only; anchored at the first
	// completion, the filtered view must drop it and everything older.
	anchor := comp.Events[0].Time
	sinceURL := base + "?since=" + url.QueryEscape(anchor.Format(time.RFC3339Nano))
	var newer eventsBody
	if code := getJSON(t, sinceURL, &newer); code != http.StatusOK {
		t.Fatalf("GET events?since=: http %d", code)
	}
	if len(newer.Events) == 0 || len(newer.Events) >= len(all.Events) {
		t.Fatalf("since filter kept %d of %d events", len(newer.Events), len(all.Events))
	}
	for _, e := range newer.Events {
		if !e.Time.After(anchor) {
			t.Fatalf("since filter leaked an event at %v (anchor %v)", e.Time, anchor)
		}
	}

	// Both filters compose.
	var both eventsBody
	if code := getJSON(t, sinceURL+"&kind=finalized", &both); code != http.StatusOK {
		t.Fatalf("GET events with both filters: http %d", code)
	}
	if len(both.Events) != 1 || both.Events[0].Kind != "finalized" {
		t.Fatalf("composed filters returned %+v", both.Events)
	}

	for _, bad := range []string{"?kind=no-such-kind", "?since=yesterday"} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET events%s: http %d, want 400", bad, resp.StatusCode)
		}
	}
}
