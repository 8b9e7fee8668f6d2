package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/tissue"
)

// postJob submits a job over the HTTP API and returns the response.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobAccepted, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// waitDone polls GET /jobs/{id} until the job reports done.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: http %d", id, code)
		}
		if st.State == "done" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestHTTPSubmitsThePapersHeadModel: tissue.AdultHead — semi-infinite
// white matter and all — is submittable over POST /jobs, and the JSON form
// that makes it so does not move its content key: the HTTP job gets the
// very ID an in-process KeyOf of the same model derives.
func TestHTTPSubmitsThePapersHeadModel(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()

	head := func() *mc.Spec {
		return mc.NewSpec(tissue.AdultHead(),
			source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 10, RMax: 30})
	}
	acc, code := postJob(t, ts, JobRequest{Spec: head(), Photons: 400, ChunkPhotons: 100, Seed: 3})
	if code != http.StatusCreated {
		t.Fatalf("submit AdultHead: http %d %+v", code, acc)
	}
	key, err := KeyOf(head(), 400, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", KeyID(key)); acc.ID != want {
		t.Fatalf("HTTP job ID %s, in-process key derives %s", acc.ID, want)
	}
	startWorkers(t, reg, 1)
	waitDone(t, ts, acc.ID)
}

// TestResultNegotiation: one result handler, two encoders chosen by Accept.
// The compact answer decodes to the body the JSON answer spells — so a
// gateway that decodes it and runs the shared JSON encoder sends a client
// the shard's own bytes — every non-200 answer is JSON whatever was asked
// for, and each encoding has its histogram pair.
func TestResultNegotiation(t *testing.T) {
	oreg := obs.NewRegistry()
	reg := New(Options{Obs: oreg})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()

	fetch := func(id, accept string) (int, string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id+"/result", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), raw
	}

	acc, _ := postJob(t, ts, JobRequest{Spec: targetSpec(5), ChunkPhotons: 200, Seed: 7,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}})
	if code, ct, raw := fetch(acc.ID, ResultCompactType); code != http.StatusAccepted || ct != "application/json" {
		t.Fatalf("unfinished job, compact asked: http %d %s %s", code, ct, raw)
	}
	startWorkers(t, reg, 1)
	waitDone(t, ts, acc.ID)

	code, ct, plain := fetch(acc.ID, "")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("plain result: http %d %s", code, ct)
	}
	code, ct, compact := fetch(acc.ID, ResultCompactType)
	if code != http.StatusOK || ct != ResultCompactType {
		t.Fatalf("compact result: http %d %s", code, ct)
	}
	res, err := DecodeResult(compact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Target == nil || !res.TargetMet || res.Tally.Moments == nil {
		t.Fatalf("compact result lost the target or the moments: %+v", res)
	}
	if again := EncodeJSON(res); !bytes.Equal(again, plain) {
		t.Fatalf("compact result re-encodes to different JSON:\n%.300s\nvs\n%.300s", again, plain)
	}
	if len(compact) >= len(plain) {
		t.Errorf("compact result %d B, JSON %d B", len(compact), len(plain))
	}

	var metrics strings.Builder
	oreg.WriteText(&metrics)
	for _, want := range []string{
		`service_result_encode_seconds_count{format="json"} 1`,
		`service_result_encode_seconds_count{format="compact"} 1`,
		`service_result_bytes_count{format="json"} 1`,
		fmt.Sprintf(`service_result_bytes_sum{format="compact"} %d`, len(compact)),
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestHTTPConcurrentJobsEndToEnd is the PR acceptance test: two concurrent
// jobs submitted over the HTTP API share one 3-worker fleet, both tallies
// match their standalone single-job runs, and resubmitting a completed
// Spec returns the cached result without assigning any chunks.
func TestHTTPConcurrentJobsEndToEnd(t *testing.T) {
	reg := New(Options{Policy: FairShare()})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	startWorkers(t, reg, 3)

	specA, specB := slabSpec(5), slabSpec(8)
	const totalA, chunkA, seedA = 3000, 250, 31
	const totalB, chunkB, seedB = 2000, 200, 41

	accA, code := postJob(t, ts, JobRequest{Spec: specA, Photons: totalA, ChunkPhotons: chunkA, Seed: seedA, Label: "job-a"})
	if code != http.StatusCreated || accA.Cached {
		t.Fatalf("submit A: http %d %+v", code, accA)
	}
	accB, code := postJob(t, ts, JobRequest{Spec: specB, Photons: totalB, ChunkPhotons: chunkB, Seed: seedB, Label: "job-b"})
	if code != http.StatusCreated || accB.Cached {
		t.Fatalf("submit B: http %d %+v", code, accB)
	}
	if accA.ID == accB.ID {
		t.Fatal("distinct jobs share an ID")
	}

	// Both jobs run concurrently on the shared fleet.
	var wg sync.WaitGroup
	wg.Add(2)
	for _, id := range []string{accA.ID, accB.ID} {
		go func(id string) { defer wg.Done(); waitDone(t, ts, id) }(id)
	}
	wg.Wait()

	var resA, resB JobResultBody
	if code := getJSON(t, ts.URL+"/jobs/"+accA.ID+"/result", &resA); code != http.StatusOK {
		t.Fatalf("result A: http %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+accB.ID+"/result", &resB); code != http.StatusOK {
		t.Fatalf("result B: http %d", code)
	}

	wantA := localTally(t, specA, totalA, chunkA, seedA)
	wantB := localTally(t, specB, totalB, chunkB, seedB)
	if resA.Tally.Launched != totalA || resB.Tally.Launched != totalB {
		t.Fatalf("launched %d/%d over HTTP, want %d/%d",
			resA.Tally.Launched, resB.Tally.Launched, totalA, totalB)
	}
	if math.Abs(resA.Tally.AbsorbedWeight-wantA.AbsorbedWeight) > 1e-9 ||
		resA.Tally.DetectedCount != wantA.DetectedCount {
		t.Fatal("job A tally over HTTP differs from its standalone single-job run")
	}
	if math.Abs(resB.Tally.AbsorbedWeight-wantB.AbsorbedWeight) > 1e-9 ||
		resB.Tally.DetectedCount != wantB.DetectedCount {
		t.Fatal("job B tally over HTTP differs from its standalone single-job run")
	}

	// Resubmit job A verbatim: served from cache, no chunks assigned.
	var before Stats
	getJSON(t, ts.URL+"/stats", &before)
	dup, code := postJob(t, ts, JobRequest{Spec: specA, Photons: totalA, ChunkPhotons: chunkA, Seed: seedA})
	if code != http.StatusOK || !dup.Cached {
		t.Fatalf("resubmission not cached: http %d %+v", code, dup)
	}
	var dupRes JobResultBody
	if code := getJSON(t, ts.URL+"/jobs/"+dup.ID+"/result", &dupRes); code != http.StatusOK {
		t.Fatalf("cached result: http %d", code)
	}
	if !dupRes.CacheHit {
		t.Fatal("cached result not flagged")
	}
	if dupRes.Tally.Launched != totalA ||
		math.Abs(dupRes.Tally.AbsorbedWeight-resA.Tally.AbsorbedWeight) > 0 {
		t.Fatal("cached tally differs from the original")
	}
	var after Stats
	getJSON(t, ts.URL+"/stats", &after)
	if after.ChunksAssigned != before.ChunksAssigned {
		t.Fatalf("cache hit assigned %d chunks", after.ChunksAssigned-before.ChunksAssigned)
	}
	if after.CacheHits == 0 || after.Workers != 3 || after.JobsDone < 3 {
		t.Fatalf("stats inconsistent: %+v", after)
	}
}

func TestHTTPCancelAndErrors(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()

	// No workers: the job stays queued until cancelled.
	acc, code := postJob(t, ts, JobRequest{Spec: slabSpec(5), Photons: 1000, ChunkPhotons: 100, Seed: 7})
	if code != http.StatusCreated {
		t.Fatalf("submit: http %d", code)
	}

	// Result before completion → 202.
	var e APIError
	if code := getJSON(t, ts.URL+"/jobs/"+acc.ID+"/result", &e); code != http.StatusAccepted {
		t.Fatalf("early result: http %d", code)
	}

	// Cancel.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+acc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: http %d", resp.StatusCode)
	}
	var st JobStatus
	getJSON(t, ts.URL+"/jobs/"+acc.ID, &st)
	if st.State != "canceled" {
		t.Fatalf("state %q after cancel", st.State)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+acc.ID+"/result", &e); code != http.StatusGone {
		t.Fatalf("result of canceled job: http %d", code)
	}

	// Unknown and malformed IDs.
	if code := getJSON(t, ts.URL+"/jobs/00000000deadbeef", &e); code != http.StatusNotFound {
		t.Fatalf("unknown id: http %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/zzz", &e); code != http.StatusBadRequest {
		t.Fatalf("malformed id: http %d", code)
	}

	// Invalid submission → 422.
	if _, code := postJob(t, ts, JobRequest{Photons: 100}); code != http.StatusUnprocessableEntity {
		t.Fatalf("specless submission: http %d", code)
	}

	// List includes the canceled job.
	var list []JobStatus
	getJSON(t, ts.URL+"/jobs", &list)
	found := false
	for _, s := range list {
		if s.IDHex == acc.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("canceled job missing from list: %+v", list)
	}
}

// TestHTTPJobIDRoundTrip pins the hex ID encoding the API promises.
func TestHTTPJobIDRoundTrip(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Job.Status()
	if want := fmt.Sprintf("%016x", out.Job.ID()); st.IDHex != want {
		t.Fatalf("IDHex %q, want %q", st.IDHex, want)
	}
	var back uint64
	if _, err := fmt.Sscanf(st.IDHex, "%x", &back); err != nil || back != out.Job.ID() {
		t.Fatalf("hex id does not round-trip: %v %d", err, back)
	}
}

// TestHTTPPrecisionJob drives a precision-targeted job over the HTTP API:
// submission with a target body, progress reporting estimate ± CI and
// photons spent, and the result echoing the met target.
func TestHTTPPrecisionJob(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	startWorkers(t, reg, 2)

	spec := targetSpec(5)
	acc, code := postJob(t, ts, JobRequest{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         41,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.02, MinPhotons: 4000},
		Label:        "precision",
	})
	if code != http.StatusCreated {
		t.Fatalf("submit: http %d", code)
	}

	st := waitDone(t, ts, acc.ID)
	if !st.TargetMet {
		t.Fatalf("status not met: %+v", st)
	}
	if st.Target == nil || st.Target.RelErr != 0.02 {
		t.Fatalf("status target missing: %+v", st.Target)
	}
	if st.PhotonsRun < 4000 {
		t.Fatalf("photonsRun %d below floor", st.PhotonsRun)
	}
	if st.Estimate <= 0 || st.CI95 <= 0 || st.RelStdErr <= 0 || st.RelStdErr > 0.02 {
		t.Fatalf("estimate triple wrong: est=%g ci=%g rse=%g", st.Estimate, st.CI95, st.RelStdErr)
	}

	var res JobResultBody
	if code := getJSON(t, ts.URL+"/jobs/"+acc.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: http %d", code)
	}
	if !res.TargetMet || res.Target == nil {
		t.Fatalf("result body lost the target: %+v", res)
	}
	if res.Tally.Launched != st.PhotonsRun {
		t.Fatalf("result launched %d != status photonsRun %d", res.Tally.Launched, st.PhotonsRun)
	}
	if res.Tally.Moments == nil {
		t.Fatal("result tally carries no moments")
	}
	if got := res.Tally.RelStdErr(mc.ObsDiffuse); math.Abs(got-st.RelStdErr) > 1e-12 {
		t.Fatalf("tally RSE %g != status %g", got, st.RelStdErr)
	}

	// A bad target is rejected at submission, not accepted and wedged.
	if _, code := postJob(t, ts, JobRequest{
		Spec:   spec,
		Seed:   1,
		Target: &mc.Target{RelErr: 2},
	}); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad target: http %d", code)
	}
}
