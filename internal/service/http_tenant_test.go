package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// rawPost submits arbitrary bytes (with optional tenant header) and
// returns the response with its body drained into a string.
func rawPost(t *testing.T, url, tenant string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestHTTPBodyLimitAndUnknownField pins two ingress hardening fixes: an
// oversized body dies at the reader with 413, and a typoed request field
// is a 400, not a silently-defaulted job.
func TestHTTPBodyLimitAndUnknownField(t *testing.T) {
	reg := New(Options{})
	api := NewAPI(reg)
	api.MaxBodyBytes = 2048
	mux := http.NewServeMux()
	api.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	big := `{"label":"` + strings.Repeat("a", 4096) + `"}`
	resp, body := rawPost(t, ts.URL+"/jobs", "", []byte(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: http %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(body, "2048") {
		t.Fatalf("413 body does not name the limit: %s", body)
	}

	resp, body = rawPost(t, ts.URL+"/jobs", "", []byte(`{"photonz":100}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: http %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(body, "photonz") {
		t.Fatalf("400 body does not name the bad field: %s", body)
	}

	// A well-formed request under the limit still sails through.
	if _, code := postJob(t, ts, JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: 1}); code != http.StatusCreated {
		t.Fatalf("small valid submit under limit: http %d", code)
	}
}

// TestHTTPTenantResolution: the X-MC-Tenant header wins over the body
// field, the body field wins over nothing, nothing means "default", and
// an overlong name is rejected before submission.
func TestHTTPTenantResolution(t *testing.T) {
	reg := New(Options{})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()

	submit := func(tenant string, seed uint64, bodyTenant string) JobStatus {
		t.Helper()
		body, _ := json.Marshal(JobRequest{
			Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: seed, Tenant: bodyTenant,
		})
		resp, raw := rawPost(t, ts.URL+"/jobs", tenant, body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: http %d: %s", resp.StatusCode, raw)
		}
		var acc JobAccepted
		if err := json.Unmarshal([]byte(raw), &acc); err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+acc.ID, &st); code != http.StatusOK {
			t.Fatalf("status: http %d", code)
		}
		return st
	}

	if st := submit("header-tenant", 1, "body-tenant"); st.Tenant != "header-tenant" {
		t.Fatalf("header did not win: %q", st.Tenant)
	}
	if st := submit("", 2, "body-tenant"); st.Tenant != "body-tenant" {
		t.Fatalf("body tenant ignored: %q", st.Tenant)
	}
	if st := submit("", 3, ""); st.Tenant != DefaultTenant {
		t.Fatalf("unattributed job tenant %q, want %q", st.Tenant, DefaultTenant)
	}

	body, _ := json.Marshal(JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: 4})
	resp, _ := rawPost(t, ts.URL+"/jobs", strings.Repeat("x", MaxTenantNameLen+1), body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overlong tenant: http %d, want 400", resp.StatusCode)
	}
}

// TestHTTPRetryAfterShapes pins both derivations of the 429 Retry-After
// header: the cap path scales with active-job depth, the token-bucket path
// advertises the bucket's exact refill wait. Neither is the old constant.
func TestHTTPRetryAfterShapes(t *testing.T) {
	// Cap path: 3 active jobs → Retry-After 3.
	capReg := New(Options{MaxActiveJobs: 3})
	capTS := httptest.NewServer(NewAPI(capReg).Handler())
	defer capTS.Close()
	for seed := uint64(1); seed <= 3; seed++ {
		if _, code := postJob(t, capTS, JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: seed}); code != http.StatusCreated {
			t.Fatalf("seed %d: http %d", seed, code)
		}
	}
	body, _ := json.Marshal(JobRequest{Spec: slabSpec(8), Photons: 100, ChunkPhotons: 100, Seed: 4})
	resp, _ := rawPost(t, capTS.URL+"/jobs", "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap: http %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("cap Retry-After %q, want %q (one second per active job)", got, "3")
	}

	// Bucket path on a frozen clock: 0.25 jobs/s → exactly 4s to one token.
	clk := newFakeClock()
	table := &TenantTable{Tenants: map[string]TenantClass{
		"flood": {JobsPerSec: 0.25, JobBurst: 1},
	}}
	tbReg := New(Options{Admission: NewTokenBucket(table, clk.now), Tenants: table})
	tbTS := httptest.NewServer(NewAPI(tbReg).Handler())
	defer tbTS.Close()
	body, _ = json.Marshal(JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: 5})
	if resp, raw := rawPost(t, tbTS.URL+"/jobs", "flood", body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first flood job: http %d: %s", resp.StatusCode, raw)
	}
	body, _ = json.Marshal(JobRequest{Spec: slabSpec(8), Photons: 100, ChunkPhotons: 100, Seed: 6})
	resp, raw := rawPost(t, tbTS.URL+"/jobs", "flood", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited flood job: http %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("bucket Retry-After %q, want %q (refill at 0.25/s)", got, "4")
	}
	if !strings.Contains(raw, ShedReasonTenantRate) {
		t.Fatalf("429 body does not carry the shed reason: %s", raw)
	}
}

// TestHTTPTenantFloodEndToEnd is the PR acceptance e2e: tenant flood's
// second job sheds with 429 while tenant alice's job completes on the same
// fleet; cache hits debit one job-rate token (and zero photons); and the
// shed shows up reason- and tenant-labeled on /metrics, in /stats, /fleet
// and /tenants.
func TestHTTPTenantFloodEndToEnd(t *testing.T) {
	table := &TenantTable{Tenants: map[string]TenantClass{
		"flood": {JobsPerSec: 0.001, JobBurst: 1},
		"alice": {Weight: 3},
		"probe": {JobsPerSec: 0.001, JobBurst: 5, PhotonsPerSec: 0.001, PhotonBurst: 1},
	}}
	reg, ts := obsServer(t, Options{
		Admission: NewTokenBucket(table, nil),
		Tenants:   table,
		Policy:    TenantFairShare(),
	})
	startWorkers(t, reg, 2)

	floodReq := JobRequest{Spec: slabSpec(5), Photons: 500, ChunkPhotons: 100, Seed: 71}
	body, _ := json.Marshal(floodReq)
	resp, raw := rawPost(t, ts.URL+"/jobs", "flood", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("flood's first job: http %d: %s", resp.StatusCode, raw)
	}
	var floodAcc JobAccepted
	if err := json.Unmarshal([]byte(raw), &floodAcc); err != nil {
		t.Fatal(err)
	}

	// The flood: a second distinct job inside the refill window sheds.
	body, _ = json.Marshal(JobRequest{Spec: slabSpec(9), Photons: 500, ChunkPhotons: 100, Seed: 72})
	resp, raw = rawPost(t, ts.URL+"/jobs", "flood", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood's second job: http %d: %s", resp.StatusCode, raw)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 2 {
		t.Fatalf("flood Retry-After %q, want a bucket-derived wait >= 2s",
			resp.Header.Get("Retry-After"))
	}

	// Alice is untouched by flood's empty bucket.
	body, _ = json.Marshal(JobRequest{Spec: slabSpec(8), Photons: 400, ChunkPhotons: 100, Seed: 73})
	resp, raw = rawPost(t, ts.URL+"/jobs", "alice", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("alice's job: http %d: %s", resp.StatusCode, raw)
	}
	var aliceAcc JobAccepted
	if err := json.Unmarshal([]byte(raw), &aliceAcc); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, aliceAcc.ID)
	waitDone(t, ts, floodAcc.ID)

	// Cache hits debit one job-rate token: flood resubmits its finished
	// job verbatim with an empty bucket and is shed before the cache can
	// hand out the result for free.
	body, _ = json.Marshal(floodReq)
	resp, raw = rawPost(t, ts.URL+"/jobs", "flood", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood's cached resubmission with empty bucket: http %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, ShedReasonTenantRate) {
		t.Fatalf("cached-resubmission 429 missing shed reason: %s", raw)
	}

	// The debit is one job token and zero photons: probe's photon burst
	// (1) is 500× too small for this job's physics, yet the cached result
	// is served because a cache hit adds no photon load to the fleet.
	body, _ = json.Marshal(floodReq)
	resp, raw = rawPost(t, ts.URL+"/jobs", "probe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe's cached submission: http %d: %s", resp.StatusCode, raw)
	}
	var dup JobAccepted
	if err := json.Unmarshal([]byte(raw), &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Cached && !dup.Coalesced {
		t.Fatalf("verbatim resubmission neither cached nor coalesced: %+v", dup)
	}

	// The sheds are visible, labeled by reason and by tenant — flood's
	// flooded job plus its rate-limited cache hit, and nothing else.
	m := scrape(t, ts.URL+"/metrics")
	if got := m[`service_jobs_shed_total{reason="tenant_rate"}`]; got != 2 {
		t.Fatalf(`shed{reason="tenant_rate"} %g, want 2`, got)
	}
	if got := m[`service_tenant_jobs_shed_total{tenant="flood"}`]; got != 2 {
		t.Fatalf("flood shed counter %g, want 2", got)
	}
	if got := m[`service_tenant_jobs_submitted_total{tenant="alice"}`]; got != 1 {
		t.Fatalf("alice submitted counter %g, want 1", got)
	}
	if got := m[`service_tenant_photons_total{tenant="alice"}`]; got != 400 {
		t.Fatalf("alice photon counter %g, want 400", got)
	}
	if got := m[`service_tenant_photons_total{tenant="flood"}`]; got != 500 {
		t.Fatalf("flood photon counter %g, want 500", got)
	}

	// The same story on the JSON surfaces.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admission != "token-bucket" {
		t.Fatalf("stats admission %q", st.Admission)
	}
	if f := st.Tenants["flood"]; f.Submitted != 1 || f.Shed != 2 || f.Photons != 500 {
		t.Fatalf("stats flood rollup %+v", f)
	}
	if a := st.Tenants["alice"]; a.Weight != 3 || a.Shed != 0 {
		t.Fatalf("stats alice rollup %+v", a)
	}

	var fb FleetBody
	getJSON(t, ts.URL+"/fleet", &fb)
	if len(fb.Tenants) == 0 {
		t.Fatal("fleet body carries no tenant rollup")
	}

	var tens TenantsBody
	if code := getJSON(t, ts.URL+"/tenants", &tens); code != http.StatusOK {
		t.Fatalf("GET /tenants: http %d", code)
	}
	if tens.Admission != "token-bucket" {
		t.Fatalf("tenants admission %q", tens.Admission)
	}
	foundFlood, foundProbe := false, false
	for _, tn := range tens.Tenants {
		switch tn.Name {
		case "flood":
			foundFlood = true
			if tn.JobTokens == nil || *tn.JobTokens >= 1 {
				t.Fatalf("flood bucket not visibly drained: %+v", tn)
			}
			if tn.Class == nil || tn.Class.JobsPerSec != 0.001 {
				t.Fatalf("flood class not echoed: %+v", tn.Class)
			}
		case "probe":
			foundProbe = true
			// The cache hit cost probe one job token and zero photons.
			if tn.JobTokens == nil || *tn.JobTokens > 4.5 {
				t.Fatalf("probe job bucket not debited by cache hit: %+v", tn)
			}
			if tn.PhotonTokens == nil || *tn.PhotonTokens < 0.999 {
				t.Fatalf("probe photon bucket debited by cache hit: %+v", tn)
			}
		}
	}
	if !foundFlood || !foundProbe {
		t.Fatalf("flood/probe missing from /tenants: %+v", tens.Tenants)
	}
}
