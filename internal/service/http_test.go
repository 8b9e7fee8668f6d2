package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
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
// very ID an in-process RoutingKeys of the same model derives.
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
	key := contentKey(t, JobSpec{Spec: head(), TotalPhotons: 400, ChunkPhotons: 100, Seed: 3})
	if want := fmt.Sprintf("%016x", KeyID(key)); acc.ID != want {
		t.Fatalf("HTTP job ID %s, in-process key derives %s", acc.ID, want)
	}
	startWorkers(t, reg, 1)
	waitDone(t, ts, acc.ID)
}

// TestResultNegotiation: a result has one encoding, whatever Accept names.
// Unfinished, the job's result is a JSON 202; finished, it is the JSON body
// with the target and the moments, and its encode is observed in the
// format="json" histogram pair, the only one.
func TestResultNegotiation(t *testing.T) {
	oreg := obs.NewRegistry()
	reg := New(Options{Obs: oreg})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()

	fetch := func(id string) (int, string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id+"/result", nil)
		req.Header.Set("Accept", "application/octet-stream")
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
	if code, ct, raw := fetch(acc.ID); code != http.StatusAccepted || ct != "application/json" {
		t.Fatalf("unfinished job: http %d %s %s", code, ct, raw)
	}
	startWorkers(t, reg, 1)
	waitDone(t, ts, acc.ID)

	code, ct, plain := fetch(acc.ID)
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("result: http %d %s", code, ct)
	}
	var res JobResultBody
	if err := json.Unmarshal(plain, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != acc.ID || res.Target == nil || !res.TargetMet || res.Tally == nil || res.Tally.Moments == nil {
		t.Fatalf("result lost the ID, the target or the moments: %.300s", plain)
	}

	var metrics strings.Builder
	oreg.WriteText(&metrics)
	for _, want := range []string{
		`service_result_encode_seconds_count{format="json"} 1`,
		`service_result_bytes_count{format="json"} 1`,
		fmt.Sprintf(`service_result_bytes_sum{format="json"} %d`, len(plain)),
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "service_result_") && !strings.Contains(line, `format="json"`) {
			t.Errorf("a result series other than format=\"json\": %s", line)
		}
	}
}

// TestResultInSealWindow fetches a result between the job's last
// reduction, which marks it done, and its seal, which releases it. The
// fetch must neither wait for the seal nor fail: it is the 202 of any
// unfinished job, the job's status agrees that it is still running, and
// once sealed the same request is the result.
func TestResultInSealWindow(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	acc, _ := postJob(t, ts, JobRequest{Spec: slabSpec(5), Photons: 200, ChunkPhotons: 100, Seed: 3})
	get := func(path string) (int, string) { // on the reducer's goroutine: t.Error only
		resp, err := http.Get(ts.URL + "/jobs/" + acc.ID + path)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	var inWindow int
	var inWindowBody, inWindowStatus string
	reg.sealHook = func() {
		_, inWindowStatus = get("")
		inWindow, inWindowBody = get("/result")
	}
	startWorkers(t, reg, 1)
	waitDone(t, ts, acc.ID)
	id, _ := strconv.ParseUint(acc.ID, 16, 64)
	if _, err := reg.Get(id).Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inWindow != http.StatusAccepted || !strings.Contains(inWindowBody, `"state":"running"`) {
		t.Fatalf("result in the seal window: http %d %s, want 202 running", inWindow, inWindowBody)
	}
	if !strings.Contains(inWindowStatus, `"state":"running"`) {
		t.Fatalf("status in the seal window: %s, want running", inWindowStatus)
	}
	if code, raw := get("/result"); code != http.StatusOK {
		t.Fatalf("result after the seal: http %d %s", code, raw)
	}
}

// TestHTTPConcurrentJobsEndToEnd is the PR acceptance test: two concurrent
// jobs submitted over the HTTP API share one 3-worker fleet, both tallies
// match their standalone single-job runs, and resubmitting a completed
// Spec answers with the job that ran it without assigning any chunks.
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

	// Resubmit job A verbatim: job A itself, no chunks assigned.
	var before Stats
	getJSON(t, ts.URL+"/stats", &before)
	dup, code := postJob(t, ts, JobRequest{Spec: specA, Photons: totalA, ChunkPhotons: chunkA, Seed: seedA})
	if code != http.StatusOK || !dup.Cached || dup.ID != accA.ID {
		t.Fatalf("resubmission: http %d %+v, want job %s, cached", code, dup, accA.ID)
	}
	var dupRes JobResultBody
	if code := getJSON(t, ts.URL+"/jobs/"+dup.ID+"/result", &dupRes); code != http.StatusOK {
		t.Fatalf("cached result: http %d", code)
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
	if after.CacheHits != 1 || after.Workers != 3 || after.JobsDone != 2 {
		t.Fatalf("stats inconsistent: %+v", after)
	}
}

// TestClaimedLengthSizesNoBuffer: with the body cap off, a compact POST
// claiming a gigabyte but carrying a few bytes is a 400 that allocates
// what the body holds, not what its header claims.
func TestClaimedLengthSizesNoBuffer(t *testing.T) {
	api := NewAPI(New(Options{}))
	api.MaxBodyBytes = -1
	h := api.Handler()
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader("{not a submission"))
	req.Header.Set("Content-Type", SubmissionCompactType)
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("http %d %s, want 400", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Fatalf("a %d-byte body claiming 1 GiB allocated %d bytes", len("{not a submission"), n)
	}
}

// TestIngressBoundsFanAndChunks: a fan width and a fixed-count chunk count
// are bounded at normalization, so POST /jobs refuses either over its bound
// with a 422 before a job — whose per-chunk bookkeeping is allocated at
// submission — or a worker's per-sub-stream generators are built. A
// precision target is not bounded by its chunks: it issues them as it runs.
func TestIngressBoundsFanAndChunks(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	for name, req := range map[string]JobRequest{
		"fan":    {Spec: slabSpec(5), Photons: 100, ChunkPhotons: 50, Fan: 2_000_000_000},
		"chunks": {Spec: slabSpec(5), Photons: 100_000_000_000, ChunkPhotons: 1},
	} {
		if acc, code := postJob(t, ts, req); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s over its bound: http %d %+v, want 422", name, code, acc)
		}
	}
	if n := len(reg.List()); n != 0 {
		t.Fatalf("refused submissions left %d jobs", n)
	}
	for name, c := range map[string]struct {
		js JobSpec
		ok bool
	}{
		"fan at the bound":           {JobSpec{Spec: slabSpec(5), TotalPhotons: 100, Fan: protocol.MaxFan}, true},
		"fan over the bound":         {JobSpec{Spec: slabSpec(5), TotalPhotons: 100, Fan: protocol.MaxFan + 1}, false},
		"chunks at the bound":        {JobSpec{Spec: slabSpec(5), TotalPhotons: maxJobChunks, ChunkPhotons: 1}, true},
		"chunks over the bound":      {JobSpec{Spec: slabSpec(5), TotalPhotons: maxJobChunks + 1, ChunkPhotons: 1}, false},
		"short tail over the bound":  {JobSpec{Spec: slabSpec(5), TotalPhotons: 3*maxJobChunks + 1, ChunkPhotons: 3}, false},
		"open-ended target":          {JobSpec{Spec: slabSpec(5), ChunkPhotons: 1, Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.1}}, true},
		"largest count in one chunk": {JobSpec{Spec: slabSpec(5), TotalPhotons: math.MaxInt64}, true},
	} {
		err := c.js.Normalize(math.MaxInt64)
		if (err == nil) != c.ok {
			t.Fatalf("%s: normalize returned %v, want ok %v", name, err, c.ok)
		}
		if err == nil && c.js.Target == nil && c.js.numChunks() > maxJobChunks {
			t.Fatalf("%s: %d chunks passed the bound", name, c.js.numChunks())
		}
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

// TestNonFiniteHelloKeepsFleetDecodable: a worker whose Hello carries a
// NaN rate must not take GET /fleet down with it — the session is refused
// at the handshake, and the body still decodes, which is what a gateway's
// fan-out and mctop read.
func TestNonFiniteHelloKeepsFleetDecodable(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- reg.HandleConn(server) }()
	go io.Copy(io.Discard, client) // the refusal
	if err := protocol.NewConn(client).Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: "nan", Mflops: math.NaN()}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("a hello with a NaN rate opened a session")
	}

	resp, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet FleetBody
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatalf("GET /fleet answered %d with a body that does not decode: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(fleet.Workers) != 0 {
		t.Fatalf("GET /fleet answered %d with %d workers, want 200 and none", resp.StatusCode, len(fleet.Workers))
	}
}

// TestWriteJSONNamesEncodeFailure: a body JSON cannot render is a 500 that
// says why, never a 200 with nothing in it.
func TestWriteJSONNamesEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"rate": math.Inf(1)})
	var body APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("WriteJSON of an infinity answered %d %q (%v), want a 500 naming the value", rec.Code, rec.Body, err)
	}
}
