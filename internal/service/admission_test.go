package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable admission clock: time moves only when the
// test says so, making token-bucket refill arithmetic exact.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func mustAdmit(t *testing.T, v AdmissionVerdict) {
	t.Helper()
	if !v.OK {
		t.Fatalf("admission refused: %+v", v)
	}
}

// TestTokenBucketJobRateExact pins the job-rate bucket's arithmetic on a
// frozen clock: burst drains exactly, one token returns after exactly one
// refill period, and partial refills round the Retry-After up to whole
// seconds.
func TestTokenBucketJobRateExact(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{Tenants: map[string]TenantClass{
		"t": {JobsPerSec: 1, JobBurst: 2},
	}}, clk.now)

	// The bucket is born full: the burst admits, then the rate governs.
	mustAdmit(t, tb.Admit("t", 0))
	mustAdmit(t, tb.Admit("t", 0))
	v := tb.Admit("t", 0)
	if v.OK || v.Reason != ShedReasonTenantRate {
		t.Fatalf("post-burst admit: %+v", v)
	}
	if v.RetryAfter != time.Second {
		t.Fatalf("empty bucket at 1/s: RetryAfter %v, want 1s", v.RetryAfter)
	}

	// Exactly one refill period buys exactly one token.
	clk.advance(time.Second)
	mustAdmit(t, tb.Admit("t", 0))
	if v := tb.Admit("t", 0); v.OK {
		t.Fatal("second token appeared from a single refill period")
	}

	// A partial refill leaves a sub-second deficit; Retry-After rounds up.
	clk.advance(300 * time.Millisecond)
	v = tb.Admit("t", 0)
	if v.OK || v.RetryAfter != time.Second {
		t.Fatalf("0.7s deficit: %+v, want refusal with 1s Retry-After", v)
	}

	// A long idle stretch refills to burst, no further.
	clk.advance(time.Hour)
	mustAdmit(t, tb.Admit("t", 0))
	mustAdmit(t, tb.Admit("t", 0))
	if v := tb.Admit("t", 0); v.OK {
		t.Fatal("idle refill exceeded burst capacity")
	}
}

// TestTokenBucketPhotonQuota pins the photon dimension: cost debits the
// bucket, a refusal computes the exact refill wait, and a single job
// costing more than the burst is never admissible.
func TestTokenBucketPhotonQuota(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{Tenants: map[string]TenantClass{
		"t": {PhotonsPerSec: 100}, // burst defaults to 10s of refill = 1000
	}}, clk.now)

	mustAdmit(t, tb.Admit("t", 600))
	v := tb.Admit("t", 600)
	if v.OK || v.Reason != ShedReasonTenantQuota {
		t.Fatalf("over-quota admit: %+v", v)
	}
	// 400 tokens remain, 200 short, refilling at 100/s: exactly 2s.
	if v.RetryAfter != 2*time.Second {
		t.Fatalf("deficit 200 at 100/s: RetryAfter %v, want 2s", v.RetryAfter)
	}

	// The refusal spent nothing: 2s later the advertised wait suffices.
	clk.advance(2 * time.Second)
	mustAdmit(t, tb.Admit("t", 600))

	// A cost above burst capacity can never be admitted, and says so.
	v = tb.Admit("t", 5000)
	if v.OK || v.Reason != ShedReasonTenantQuota {
		t.Fatalf("impossible cost admitted: %+v", v)
	}
	if !strings.Contains(v.Detail, "exceeds tenant burst") {
		t.Fatalf("impossible cost not called out: %q", v.Detail)
	}
}

// TestTokenBucketProbeSpendsNothing: Probe is the registry's pre-Build
// check and must never debit — otherwise every submission would pay twice.
func TestTokenBucketProbeSpendsNothing(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{Tenants: map[string]TenantClass{
		"t": {JobsPerSec: 1, JobBurst: 1},
	}}, clk.now)

	for i := 0; i < 5; i++ {
		mustAdmit(t, tb.Probe("t", 0))
	}
	mustAdmit(t, tb.Admit("t", 0)) // the token probes left behind
	if v := tb.Probe("t", 0); v.OK || v.RetryAfter != time.Second {
		t.Fatalf("probe of an empty bucket: %+v", v)
	}
}

// TestTokenBucketRefusalLeaksNoTokens: a photon-quota refusal must not
// consume the job token that was checked first.
func TestTokenBucketRefusalLeaksNoTokens(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{Tenants: map[string]TenantClass{
		"t": {JobsPerSec: 1, JobBurst: 1, PhotonsPerSec: 1, PhotonBurst: 10},
	}}, clk.now)

	if v := tb.Admit("t", 100); v.OK {
		t.Fatalf("cost 100 admitted against burst 10")
	}
	// The single job token must still be there for an affordable job.
	mustAdmit(t, tb.Admit("t", 5))
}

// TestTokenBucketUnknownTenantGetsDefault: tenants absent from the table
// run under the default class, each with their own buckets.
func TestTokenBucketUnknownTenantGetsDefault(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{
		Default: TenantClass{JobsPerSec: 0.5, JobBurst: 1},
	}, clk.now)

	mustAdmit(t, tb.Admit("stranger", 0))
	v := tb.Admit("stranger", 0)
	if v.OK || v.RetryAfter != 2*time.Second {
		t.Fatalf("default class at 0.5/s: %+v, want refusal with 2s", v)
	}
	// A different stranger has an untouched bucket of their own.
	mustAdmit(t, tb.Admit("other", 0))
}

// TestTokenBucketLevels checks the /tenants introspection snapshot.
func TestTokenBucketLevels(t *testing.T) {
	clk := newFakeClock()
	tb := NewTokenBucket(&TenantTable{Tenants: map[string]TenantClass{
		"b": {JobsPerSec: 1, JobBurst: 4, PhotonsPerSec: 100, PhotonBurst: 1000},
	}}, clk.now)
	mustAdmit(t, tb.Admit("b", 250))
	mustAdmit(t, tb.Admit("a", 0)) // unlimited via empty default class

	ls := tb.Levels()
	if len(ls) != 2 || ls[0].Tenant != "a" || ls[1].Tenant != "b" {
		t.Fatalf("levels not sorted by tenant: %+v", ls)
	}
	if ls[1].JobTokens != 3 || ls[1].PhotonTokens != 750 {
		t.Fatalf("tenant b levels %+v, want 3 job / 750 photon tokens", ls[1])
	}
}

// TestLoadTenantTable round-trips the -tenants file, including the
// defaults normalization and the loud failures for typos and bad names.
func TestLoadTenantTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	table, err := LoadTenantTable(write("ok.json", `{
		"default": {"jobsPerSec": 2},
		"tenants": {
			"alice": {"weight": 3, "jobsPerSec": 2},
			"flood": {"jobsPerSec": 0.5, "jobBurst": 2}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c := table.Class("alice"); c.Weight != 3 || c.JobBurst != 1 {
		t.Fatalf("alice class %+v: want weight 3, burst normalized to 1", c)
	}
	if c := table.Class("nobody"); c.JobsPerSec != 2 || c.Weight != 1 {
		t.Fatalf("unknown tenant got %+v, want the default class", c)
	}
	if w := table.Weight("flood"); w != 1 {
		t.Fatalf("flood weight %g, want 1", w)
	}

	// NB: Go's JSON matching is case-insensitive, so the typo must differ
	// by more than case to be unknown.
	if _, err := LoadTenantTable(write("typo.json",
		`{"tenants": {"x": {"jobRate": 1}}}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	if _, err := LoadTenantTable(write("name.json",
		`{"tenants": {"`+strings.Repeat("x", MaxTenantNameLen+1)+`": {}}}`)); err == nil {
		t.Fatal("overlong tenant name accepted")
	}
	if _, err := LoadTenantTable(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestShedErrorWrapsOverloaded keeps pre-tenancy errors.Is checks working.
func TestShedErrorWrapsOverloaded(t *testing.T) {
	err := error(&ShedError{Tenant: "t", Reason: ShedReasonTenantRate})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("ShedError does not unwrap to ErrOverloaded")
	}
}

// TestRegistrySubmitTenantAdmission drives the registry directly: a
// rate-limited tenant's second fresh job sheds with a typed ShedError,
// coalescing costs one job-rate token (an empty bucket sheds even a
// duplicate — PR 10 closed the resubmit-a-live-spec quota bypass), other
// tenants are untouched, and the per-tenant stats rollup records it all.
func TestRegistrySubmitTenantAdmission(t *testing.T) {
	clk := newFakeClock()
	table := &TenantTable{Tenants: map[string]TenantClass{
		"flood": {JobsPerSec: 0.25, JobBurst: 1},
	}}
	reg := New(Options{Admission: NewTokenBucket(table, clk.now), Tenants: table})

	first, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1, Tenant: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Job.Status().Tenant; got != "flood" {
		t.Fatalf("job status tenant %q", got)
	}

	_, err = reg.Submit(JobSpec{Spec: slabSpec(8), TotalPhotons: 300, ChunkPhotons: 100, Seed: 2, Tenant: "flood"})
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second flood job: %v, want ShedError wrapping ErrOverloaded", err)
	}
	if shed.Reason != ShedReasonTenantRate || shed.Tenant != "flood" {
		t.Fatalf("shed verdict %+v", shed)
	}
	if shed.RetryAfter != 4*time.Second {
		t.Fatalf("RetryAfter %v at 0.25 jobs/s, want 4s", shed.RetryAfter)
	}

	// Coalescing with the live identical job is a submission too: with the
	// job bucket empty it sheds like any other, so resubmitting a popular
	// live spec cannot bypass the jobs/sec quota.
	_, err = reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1, Tenant: "flood"})
	if !errors.As(err, &shed) || shed.Reason != ShedReasonTenantRate {
		t.Fatalf("coalesced resubmission on empty bucket: %v, want tenant_rate ShedError", err)
	}
	// Once the bucket refills, the duplicate coalesces — it debits the one
	// job token but no photons, and it skips any active-jobs cap.
	clk.advance(4 * time.Second)
	dup, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1, Tenant: "flood"})
	if err != nil || !dup.Coalesced || dup.Job != first.Job {
		t.Fatalf("coalesced resubmission after refill: %+v, %v", dup, err)
	}

	// Another tenant has its own (unlimited, default-class) bucket.
	if _, err := reg.Submit(JobSpec{Spec: slabSpec(9), TotalPhotons: 300, ChunkPhotons: 100, Seed: 3, Tenant: "calm"}); err != nil {
		t.Fatal(err)
	}

	st := reg.Stats()
	if st.Admission != "token-bucket" {
		t.Fatalf("stats admission %q", st.Admission)
	}
	f := st.Tenants["flood"]
	if f.Submitted != 1 || f.Shed != 2 || f.ActiveJobs != 1 {
		t.Fatalf("flood rollup %+v", f)
	}
	if c := st.Tenants["calm"]; c.Submitted != 1 || c.Shed != 0 {
		t.Fatalf("calm rollup %+v", c)
	}

	// The introspection list carries live bucket levels for flood.
	var floodStatus *TenantStatus
	for _, ts := range reg.Tenants() {
		if ts.Name == "flood" {
			s := ts
			floodStatus = &s
		}
	}
	if floodStatus == nil || floodStatus.JobTokens == nil {
		t.Fatalf("flood missing from Tenants() or without bucket levels: %+v", floodStatus)
	}
	if *floodStatus.JobTokens != 0 {
		t.Fatalf("flood job tokens %g, want 0 after its burst", *floodStatus.JobTokens)
	}
}

// TestJobSpecTenantNormalize: an empty tenant becomes the default; an
// overlong one is rejected at submission.
func TestJobSpecTenantNormalize(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Job.Status().Tenant; got != DefaultTenant {
		t.Fatalf("unattributed job tenant %q, want %q", got, DefaultTenant)
	}
	_, err = reg.Submit(JobSpec{
		Spec: slabSpec(8), TotalPhotons: 100, ChunkPhotons: 100, Seed: 2,
		Tenant: strings.Repeat("x", MaxTenantNameLen+1),
	})
	if err == nil {
		t.Fatal("overlong tenant accepted")
	}
}

// TestTenantFairShareTwoTenants is the scheduling acceptance test: two
// tenants at 3:1 weights, two equal-weight jobs each, served by one probe
// worker through the real dispatcher. Tenant a must receive ~3x tenant b's
// assignments regardless of per-tenant job counts, and a's two jobs must
// split their tenant's share evenly.
func TestTenantFairShareTwoTenants(t *testing.T) {
	table := &TenantTable{Tenants: map[string]TenantClass{
		"a": {Weight: 3},
		"b": {Weight: 1},
	}}
	reg := New(Options{Policy: TenantFairShare(), Tenants: table})

	submit := func(mua float64, seed uint64, tenant string) uint64 {
		t.Helper()
		out, err := reg.Submit(JobSpec{
			Spec: slabSpec(mua), TotalPhotons: 8000, ChunkPhotons: 100,
			Seed: seed, Tenant: tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Job.ID()
	}
	a1 := submit(5, 1, "a")
	a2 := submit(8, 2, "a")
	b1 := submit(9, 3, "b")

	sess := &session{id: 999, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()

	counts := map[uint64]int{}
	for i := 0; i < 80; i++ {
		msg := reg.nextAssignment(sess, want(1))
		if msg.Assign == nil {
			t.Fatalf("assignment %d: no chunk", i)
		}
		counts[msg.Assign.JobID]++
		completeAssign(reg, sess, msg.Assign)
	}

	aTotal := counts[a1] + counts[a2]
	bTotal := counts[b1]
	if aTotal+bTotal != 80 {
		t.Fatalf("assignments went to unknown jobs: %v", counts)
	}
	ratio := float64(aTotal) / float64(bTotal)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("3:1 tenant weights served at %.2f (%d vs %d)", ratio, aTotal, bTotal)
	}
	// Within tenant a, the two equal-weight jobs split evenly.
	inner := float64(counts[a1]) / float64(counts[a2])
	if inner < 0.7 || inner > 1.4 {
		t.Fatalf("tenant a's jobs split %d vs %d", counts[a1], counts[a2])
	}
}
