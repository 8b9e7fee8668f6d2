package service

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// checkBooks asserts that every lifetime figure of Stats() and Tenants()
// equals the /metrics series it is read from, and returns the Stats.
func checkBooks(t *testing.T, reg *Registry, oreg *obs.Registry) Stats {
	t.Helper()
	var buf bytes.Buffer
	if err := oreg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseExposition(t, buf.Bytes())
	st := reg.Stats()
	check := func(what string, got int64, series ...string) {
		t.Helper()
		var want float64
		for _, s := range series {
			v, ok := m[s]
			if !ok {
				t.Errorf("%s: series %s is not exported", what, s)
			}
			want += v
		}
		if float64(got) != want {
			t.Errorf("%s = %d, but %s = %v", what, got, strings.Join(series, " + "), want)
		}
	}
	check("Stats.ChunksAssigned", st.ChunksAssigned, "service_chunks_granted_total")
	check("Stats.PhotonsCompleted", st.PhotonsCompleted, "service_photons_reduced_total")
	check("Stats.RejectedResults", st.RejectedResults,
		`service_results_rejected_total{reason="stale"}`,
		`service_results_rejected_total{reason="batch"}`,
		`service_results_rejected_total{reason="benign"}`)
	check("Stats.BatchesReduced", st.BatchesReduced, "service_batches_reduced_total")
	check("Stats.TallyMerges", st.TallyMerges, "service_tally_merges_total")
	check("Stats.CacheHits", st.CacheHits,
		`service_cache_hits_total{index="exact"}`, `service_cache_hits_total{index="physics"}`)
	check("Stats.CacheMisses", st.CacheMisses, "service_cache_misses_total")
	check("Stats.JobsSubmitted", st.JobsSubmitted, "service_jobs_submitted_total")
	check("Stats.JobsResumed", st.JobsResumed, "service_jobs_resumed_total")
	check("Stats.JobsReplayed", st.JobsReplayed, "service_jobs_replayed_total")

	tenant := func(from, name string, submitted, resumed, shed, photons int64) {
		t.Helper()
		label := `{tenant="` + name + `"}`
		check(from+"["+name+"].Submitted", submitted, "service_tenant_jobs_submitted_total"+label)
		check(from+"["+name+"].Resumed", resumed, "service_tenant_jobs_resumed_total"+label)
		check(from+"["+name+"].Shed", shed, "service_tenant_jobs_shed_total"+label)
		check(from+"["+name+"].Photons", photons, "service_tenant_photons_total"+label)
	}
	for name, ts := range st.Tenants {
		tenant("Stats.Tenants", name, ts.Submitted, ts.Resumed, ts.Shed, ts.Photons)
	}
	for _, ts := range reg.Tenants() {
		tenant("Tenants()", ts.Name, ts.Submitted, ts.Resumed, ts.Shed, ts.Photons)
	}
	return st
}

// probeSession registers a hand-driven session, for delivering results no
// honest worker would.
func probeSession(reg *Registry) *session {
	sess := &session{id: 999, name: "probe", knownJobs: map[uint64]bool{}, assigned: map[chunkRef]*assignment{}}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()
	return sess
}

// TestBooksAgreeWithMetrics drives every path that counts — submit,
// coalesce, cache hit on both indexes, shed (a fresh job and a cache hit),
// reduce, reject, and resume by journal replay — and after each act holds
// GET /stats and GET /tenants to the series on /metrics. They are one set
// of counters; this pins which figure reads which series.
func TestBooksAgreeWithMetrics(t *testing.T) {
	clk := newFakeClock()
	table := &TenantTable{Tenants: map[string]TenantClass{
		"metered": {JobsPerSec: 0.25, JobBurst: 4, Weight: 2},
	}}
	dir := t.TempDir()
	oA := obs.NewRegistry()
	regA, wlA, _ := journaledRegistry(t, dir, 2, Options{
		Obs: oA, Admission: NewTokenBucket(table, clk.now), Tenants: table,
	})
	work := func(reg *Registry, chunks int) {
		t.Helper()
		server, client := net.Pipe()
		go reg.HandleConn(server)
		if err := workChunks(client, chunks); err != nil {
			t.Fatalf("worker: %v", err)
		}
		client.Close()
	}

	// Submit and reduce: a fixed-count job with moments, run to completion.
	spec := targetSpec(5)
	fixed := JobSpec{Spec: spec, TotalPhotons: 3000, ChunkPhotons: 500, Seed: 7, Tenant: "metered"}
	first, err := regA.Submit(fixed)
	if err != nil {
		t.Fatal(err)
	}
	work(regA, 6)
	res, err := first.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Cache hits: the same submission again (exact index) and a looser
	// precision target over the same physics (physics index).
	if out, err := regA.Submit(fixed); err != nil || !out.Cached {
		t.Fatalf("resubmission: %+v, %v; want an exact-index hit", out, err)
	}
	loose := JobSpec{Spec: spec, ChunkPhotons: 500, Seed: 7, Tenant: "metered", Target: &mc.Target{
		Observable: mc.ObsDiffuse, RelErr: 1.5 * res.Tally.RelStdErr(mc.ObsDiffuse), MinPhotons: 1000}}
	if out, err := regA.Submit(loose); err != nil || !out.Cached {
		t.Fatalf("looser target: %+v, %v; want a physics-index hit", out, err)
	}
	if out, err := regA.Submit(fixed); err != nil || !out.Cached {
		t.Fatalf("resubmission: %+v, %v", out, err)
	}
	// The bucket is now empty. Shed: a cache hit, then a fresh job.
	var shed *ShedError
	if _, err := regA.Submit(fixed); !errors.As(err, &shed) {
		t.Fatalf("cache hit on an empty bucket: %v, want a ShedError", err)
	}
	if _, err := regA.Submit(JobSpec{Spec: slabSpec(9), TotalPhotons: 100, Seed: 1, Tenant: "metered"}); !errors.As(err, &shed) {
		t.Fatalf("fresh job on an empty bucket: %v, want a ShedError", err)
	}
	// Coalesce: an unmetered tenant's job, submitted twice while it runs,
	// and left part-reduced for the replay below (snapshots at 2 and 4).
	long := JobSpec{Spec: slabSpec(4), TotalPhotons: 2000, ChunkPhotons: 250, Seed: 13, Tenant: "free"}
	running, err := regA.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := regA.Submit(long); err != nil || !out.Coalesced {
		t.Fatalf("duplicate of a live job: %+v, %v; want coalesced", out, err)
	}
	work(regA, 5)
	// Reject: a result for a job nobody has, and a payload that is no tally.
	sess := probeSession(regA)
	regA.reduceBatch(sess, oneChunkBatch(0xdead, 0, res.Tally), &mc.Tally{})
	regA.reduceBatch(sess, &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID: running.Job.ID(), Chunks: []int{6, 7}, TallyData: []byte("not a tally"),
	}}}, &mc.Tally{})

	st := checkBooks(t, regA, oA)
	got := [...]int64{st.ChunksAssigned, st.PhotonsCompleted, st.RejectedResults, st.BatchesReduced,
		st.TallyMerges, st.CacheHits, st.CacheMisses, st.JobsSubmitted}
	if want := [...]int64{11, 3000 + 5*250, 3, 13, 11, 3, 3, 2}; got != want {
		t.Errorf("chunks assigned, photons, rejects, batches, merges, hits, misses, submitted:\n got %v\nwant %v", got, want)
	}
	if m := st.Tenants["metered"]; m.Submitted != 1 || m.Shed != 2 || m.Photons != 3000 {
		t.Errorf("metered rollup %+v, want 1 submitted, 2 shed, 3000 photons", m)
	}
	if f := st.Tenants["free"]; f.Submitted != 1 || f.Shed != 0 || f.Photons != 5*250 {
		t.Errorf("free rollup %+v, want 1 submitted, 0 shed, 1250 photons", f)
	}

	// Resume by replay: a second registry on the same journal restores the
	// finished job born done and the running one from its last snapshot.
	wlA.Close()
	oB := obs.NewRegistry()
	regB, wlB, restored := replayInto(t, dir, Options{
		Obs: oB, Admission: NewTokenBucket(table, clk.now), Tenants: table,
	})
	defer wlB.Close()
	if restored != 2 {
		t.Fatalf("replay restored %d jobs, want 2", restored)
	}
	st = checkBooks(t, regB, oB)
	if st.JobsResumed != 2 || st.JobsReplayed != 2 || st.JobsSubmitted != 0 {
		t.Errorf("after replay: resumed %d, replayed %d, submitted %d; want 2, 2, 0",
			st.JobsResumed, st.JobsReplayed, st.JobsSubmitted)
	}
	if m, f := st.Tenants["metered"], st.Tenants["free"]; m.Resumed != 1 || f.Resumed != 1 {
		t.Errorf("per-tenant resumes: metered %+v, free %+v; want 1 each", m, f)
	}
	work(regB, 4)
	if _, err := regB.Get(running.Job.ID()).Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st = checkBooks(t, regB, oB); st.PhotonsCompleted != 4*250 {
		t.Errorf("resumed registry reduced %d photons, want the 1000 past the last snapshot", st.PhotonsCompleted)
	}
}

// TestShedCacheHitIsNotAHit: a cache hit the tenant's job-rate bucket
// sheds was a hit in Stats (counted before admission) and not in
// service_cache_hits_total (counted after). A hit is counted when served.
func TestShedCacheHitIsNotAHit(t *testing.T) {
	clk := newFakeClock()
	table := &TenantTable{Tenants: map[string]TenantClass{"metered": {JobsPerSec: 0.25, JobBurst: 2}}}
	oreg := obs.NewRegistry()
	reg := New(Options{Obs: oreg, Admission: NewTokenBucket(table, clk.now), Tenants: table})
	startWorkers(t, reg, 1)
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1, Tenant: "metered"}
	out, err := reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Job.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if out, err := reg.Submit(js); err != nil || !out.Cached {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", out, err)
	}
	var shed *ShedError
	if _, err := reg.Submit(js); !errors.As(err, &shed) || shed.Reason != ShedReasonTenantRate {
		t.Fatalf("hit on a drained bucket: %v, want a tenant_rate ShedError", err)
	}
	st := checkBooks(t, reg, oreg)
	if st.CacheHits != 1 || st.Tenants["metered"].Shed != 1 {
		t.Fatalf("CacheHits %d, shed %d; want the one served hit and the one shed",
			st.CacheHits, st.Tenants["metered"].Shed)
	}
}

// TestStatsCountWithoutObs: with no Options.Obs the registry instruments
// into a private registry nothing scrapes, and Stats still counts.
func TestStatsCountWithoutObs(t *testing.T) {
	reg := New(Options{})
	startWorkers(t, reg, 2)
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 3}
	out, err := reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Job.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if out, err := reg.Submit(js); err != nil || !out.Cached {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", out, err)
	}
	st := reg.Stats()
	if st.JobsSubmitted != 1 || st.CacheMisses != 1 || st.CacheHits != 1 ||
		st.ChunksAssigned != 10 || st.PhotonsCompleted != 1000 ||
		st.BatchesReduced != 10 || st.TallyMerges != 10 {
		t.Fatalf("stats without Obs: %+v", st)
	}
	ts := reg.Tenants()
	if len(ts) != 1 || ts[0].Name != DefaultTenant || ts[0].Submitted != 1 || ts[0].Photons != 1000 {
		t.Fatalf("tenants without Obs: %+v", ts)
	}
}

// fillNumbers sets every integer and float field of the struct v to a
// distinct non-zero value.
func fillNumbers(v reflect.Value, n *int) {
	for i := range v.NumField() {
		switch f := v.Field(i); {
		case f.CanInt():
			*n++
			f.SetInt(int64(*n))
		case f.CanFloat():
			*n++
			f.SetFloat(float64(*n) + 0.5)
		}
	}
}

// TestStatsAddSumsEveryField: the gateway's /stats is its shards' summed
// with Stats.Add, so a figure Add forgets reads as zero through a gateway.
// Every numeric field of Stats and TenantStat — present and future — must
// come out as the sum (a tenant's Weight, a setting, as the latest).
func TestStatsAddSumsEveryField(t *testing.T) {
	n := 0
	filled := func() Stats {
		var s Stats
		var ts TenantStat
		fillNumbers(reflect.ValueOf(&s).Elem(), &n)
		fillNumbers(reflect.ValueOf(&ts).Elem(), &n)
		s.Tenants = map[string]TenantStat{"t": ts}
		s.Policy, s.Admission = fmt.Sprint("policy", n), fmt.Sprint("admission", n)
		return s
	}
	a, b := filled(), filled()
	var sum Stats
	sum.Add(a)
	sum.Add(b)

	check := func(got, a, b reflect.Value) {
		t.Helper()
		for i := range got.NumField() {
			name := got.Type().Name() + "." + got.Type().Field(i).Name
			switch g := got.Field(i); {
			case g.CanInt():
				if g.Int() != a.Field(i).Int()+b.Field(i).Int() {
					t.Errorf("%s = %d after adding %d and %d", name, g.Int(), a.Field(i).Int(), b.Field(i).Int())
				}
			case name == "TenantStat.Weight":
				if g.Float() != b.Field(i).Float() {
					t.Errorf("%s = %v, want the latest, %v", name, g.Float(), b.Field(i).Float())
				}
			case g.CanFloat():
				if g.Float() != a.Field(i).Float()+b.Field(i).Float() {
					t.Errorf("%s = %v after adding %v and %v", name, g.Float(), a.Field(i).Float(), b.Field(i).Float())
				}
			}
		}
	}
	check(reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b))
	check(reflect.ValueOf(sum.Tenants["t"]), reflect.ValueOf(a.Tenants["t"]), reflect.ValueOf(b.Tenants["t"]))
	if sum.Policy != a.Policy || sum.Admission != a.Admission {
		t.Errorf("policy %q, admission %q; want the first snapshot's %q, %q", sum.Policy, sum.Admission, a.Policy, a.Admission)
	}
}
