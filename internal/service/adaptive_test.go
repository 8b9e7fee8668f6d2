package service

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/mc"
)

// targetSpec returns the layered spec precision tests steer by diffuse
// reflectance, with moments pre-enabled so fixed-count runs of it are
// physics-index comparable to targeted ones.
func targetSpec(thicknessMM float64) *mc.Spec {
	spec := slabSpec(thicknessMM)
	spec.TrackMoments = true
	return spec
}

// TestRunAdaptiveMeetsAcceptance pins the headline acceptance numbers on
// the deterministic local loop: a 1%-RSE diffuse-reflectance job stops
// ≥5× below a conservative fixed budget, its reported 95% CI covers the
// value of a reference run ten times longer, and its estimate matches the
// tally's direct ratio.
func TestRunAdaptiveMeetsAcceptance(t *testing.T) {
	const (
		chunk              = 500
		conservativeBudget = 100_000 // what a cautious user runs for 1% on Rd
	)
	spec := targetSpec(5)
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The 24-chunk floor puts the first RSE test past the point where 1%
	// is genuinely reachable (true RSE at 4k photons is ~1.3% here): a
	// lower floor would select for optimistically small early variance
	// estimates and stop with an overconfident CI — the stopping rule's
	// standard bias, which this test would then flag as missed coverage.
	tgt := mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.01,
		MinPhotons: 24 * chunk, MaxPhotons: conservativeBudget}
	tally, err := mc.RunAdaptive(cfg, tgt, 41, chunk, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tgt.MetBy(tally) {
		t.Fatalf("adaptive run stopped unmet: %d photons, RSE %g",
			tally.Launched, tally.RelStdErr(mc.ObsDiffuse))
	}
	if tally.Launched*5 > conservativeBudget {
		t.Fatalf("adaptive run used %d photons, not ≥5× under the %d budget",
			tally.Launched, conservativeBudget)
	}

	est, ci := tally.EstimateCI(mc.ObsDiffuse)
	if math.Abs(est-tally.DiffuseReflectance()) > 1e-9 {
		t.Fatalf("moment estimate %g != direct ratio %g", est, tally.DiffuseReflectance())
	}

	// Reference: ten times the adaptive spend, independent streams.
	refCfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.RunParallel(refCfg, 10*tally.Launched, 97, 8)
	if err != nil {
		t.Fatal(err)
	}
	refEst, refCI := ref.EstimateCI(mc.ObsDiffuse)
	if math.Abs(est-refEst) > ci+refCI {
		t.Fatalf("adaptive CI does not cover the 10× reference: |%.5f−%.5f| = %.5f > %.5f+%.5f",
			est, refEst, math.Abs(est-refEst), ci, refCI)
	}

	// Determinism: the loop is a pure function of its inputs.
	again, err := mc.RunAdaptive(cfg, tgt, 41, chunk, 4)
	if err != nil {
		t.Fatal(err)
	}
	if again.Launched != tally.Launched || again.DiffuseWeight != tally.DiffuseWeight {
		t.Fatal("RunAdaptive is not deterministic for fixed inputs")
	}
}

// TestPrecisionTargetedJobEndToEnd drives a run-until-precision job over a
// 3-worker batched fleet: the registry must issue chunks open-endedly,
// finalize at the target, normalize by the photons actually simulated, and
// report a sane estimate ± CI in both Result and Status.
func TestPrecisionTargetedJobEndToEnd(t *testing.T) {
	reg := New(Options{Policy: FairShare()})
	for i := 0; i < 3; i++ {
		server, client := net.Pipe()
		go reg.HandleConn(server)
		name := string(rune('a' + i))
		go func() { _, _ = batchClient(client, name, 3) }()
		t.Cleanup(func() { client.Close() })
	}

	spec := targetSpec(5)
	out, err := reg.Submit(JobSpec{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         41,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.01},
		ChunkTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Coalesced {
		t.Fatal("fresh precision job reported cached/coalesced")
	}
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TargetMet {
		t.Fatalf("job finished unmet after %d photons", res.Tally.Launched)
	}
	launched := res.Tally.Launched
	if launched < DefaultMinTargetChunks*500 {
		t.Fatalf("stopped below the %d-photon floor: %d", DefaultMinTargetChunks*500, launched)
	}
	if launched > 20_000 {
		t.Fatalf("spent %d photons for 1%% on Rd; expected a few thousand", launched)
	}
	if rse := res.Tally.RelStdErr(mc.ObsDiffuse); rse > 0.01 {
		t.Fatalf("reported RSE %g above the 0.01 target", rse)
	}
	// Normalized by photons actually simulated: the launched count must
	// equal the reduced chunks times the chunk size.
	var completed int64
	for _, c := range out.Job.chunks {
		if c.phase == phaseDone {
			completed++
		}
	}
	if launched != completed*500 {
		t.Fatalf("launched %d != %d reduced chunks × 500", launched, completed)
	}

	// The estimate must agree with an independent 10× reference well
	// inside a generous multiple of the combined uncertainty (the chunk
	// set a nondeterministic fleet reduces varies run to run, so this
	// bound is deliberately loose — the tight CI-coverage check lives in
	// the deterministic TestRunAdaptiveMeetsAcceptance).
	est, ci := res.Tally.EstimateCI(mc.ObsDiffuse)
	refCfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.RunParallel(refCfg, 10*launched, 97, 8)
	if err != nil {
		t.Fatal(err)
	}
	refEst, refCI := ref.EstimateCI(mc.ObsDiffuse)
	if math.Abs(est-refEst) > 3*(ci+refCI) {
		t.Fatalf("fleet estimate %.5f vs reference %.5f: outside 3×(%.5f+%.5f)",
			est, refEst, ci, refCI)
	}

	st := out.Job.Status()
	if !st.TargetMet || st.PhotonsRun != launched {
		t.Fatalf("status targetMet=%v photonsRun=%d, want true/%d", st.TargetMet, st.PhotonsRun, launched)
	}
	if st.Estimate == 0 || st.RelStdErr == 0 || st.CI95 == 0 {
		t.Fatalf("status estimate triple missing: %+v", st)
	}
	if st.Target == nil || st.Target.MaxPhotons == 0 {
		t.Fatal("status does not echo the normalized target")
	}

	// Identical resubmission: exact-key cache hit, no new chunks.
	before := reg.Stats().ChunksAssigned
	dup, err := reg.Submit(JobSpec{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         41,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.01},
		ChunkTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached {
		t.Fatal("identical precision resubmission not cache-served")
	}
	// A *looser* target of the same physics is met-or-exceeded by the
	// stored run: served from the physics index, again without photons.
	loose, err := reg.Submit(JobSpec{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         41,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Cached {
		t.Fatal("looser precision request not served by meets-or-exceeds cache")
	}
	looseRes, err := loose.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if looseRes.Tally.Launched != launched || !looseRes.TargetMet {
		t.Fatalf("meets-or-exceeds hit returned %d photons, met=%v",
			looseRes.Tally.Launched, looseRes.TargetMet)
	}
	if after := reg.Stats().ChunksAssigned; after != before {
		t.Fatalf("cache-served submissions assigned %d chunks", after-before)
	}
	// A precision submission probes both the exact and the physics index
	// but must count as ONE cache lookup: the fresh submission recorded
	// one miss, the two cache-served ones one hit each.
	st2 := reg.Stats()
	if st2.CacheMisses != 1 || st2.CacheHits != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 2/1", st2.CacheHits, st2.CacheMisses)
	}
}

// TestFixedJobServesPrecisionRequest covers the other meets-or-exceeds
// direction: a deep fixed-count run with TrackMoments set satisfies a
// later precision request for the same decomposition.
func TestFixedJobServesPrecisionRequest(t *testing.T) {
	reg := New(Options{})
	startWorkers(t, reg, 2)

	spec := targetSpec(6)
	out, err := reg.Submit(JobSpec{Spec: spec, TotalPhotons: 6000, ChunkPhotons: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Moments == nil {
		t.Fatal("TrackMoments fixed job produced no moments")
	}
	rse := res.Tally.RelStdErr(mc.ObsDiffuse)
	if math.IsInf(rse, 1) {
		t.Fatal("fixed job RSE unavailable")
	}

	prec, err := reg.Submit(JobSpec{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         7,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: rse * 1.5,
			MinPhotons: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !prec.Cached {
		t.Fatal("precision request not served by the fixed run's physics entry")
	}
	pres, err := prec.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Tally.Launched != 6000 {
		t.Fatalf("served tally has %d photons, want 6000", pres.Tally.Launched)
	}

	// A *stricter* target than the stored run achieved must miss the
	// index and run fresh chunks.
	strict, err := reg.Submit(JobSpec{
		Spec:         spec,
		ChunkPhotons: 500,
		Seed:         7,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: rse / 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Cached {
		t.Fatal("stricter request served by a shallower stored run")
	}
	sres, err := strict.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := sres.Tally.RelStdErr(mc.ObsDiffuse); got > rse/4 {
		t.Fatalf("strict job finished with RSE %g > %g", got, rse/4)
	}
	if sres.Tally.Launched <= 6000 {
		t.Fatalf("strict job spent %d photons, no more than the stored run", sres.Tally.Launched)
	}
}

// TestPrecisionJobBudgetCap: a target the budget cannot reach finishes at
// its photon cap, unmet, reporting the achieved RSE — it must not spin.
func TestPrecisionJobBudgetCap(t *testing.T) {
	reg := New(Options{})
	startWorkers(t, reg, 2)

	out, err := reg.Submit(JobSpec{
		Spec:         targetSpec(5),
		ChunkPhotons: 500,
		Seed:         11,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.0001,
			MinPhotons: 1000, MaxPhotons: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetMet {
		t.Fatal("0.01% RSE reported met on 3000 photons")
	}
	if res.Tally.Launched != 3000 {
		t.Fatalf("budget-capped job launched %d, want exactly 3000", res.Tally.Launched)
	}
	if math.IsInf(res.Tally.RelStdErr(mc.ObsDiffuse), 1) {
		t.Fatal("capped job reports no achieved RSE")
	}
}

// TestNormalizePrecisionDefaults pins the submission normalization: chunk
// and floor defaults, operator cap clamping, chunk-aligned budgets, the
// fixed-photon field ignored, and the caller's spec never mutated.
func TestNormalizePrecisionDefaults(t *testing.T) {
	spec := slabSpec(5) // TrackMoments deliberately false
	js := JobSpec{
		Spec:         spec,
		TotalPhotons: 999_999, // ignored for targeted jobs
		Seed:         1,
		Target:       &mc.Target{RelErr: 0.02},
	}
	if err := js.Normalize(0); err != nil {
		t.Fatal(err)
	}
	if js.TotalPhotons != 0 {
		t.Fatalf("TotalPhotons %d not cleared", js.TotalPhotons)
	}
	if js.ChunkPhotons != DefaultTargetChunkPhotons {
		t.Fatalf("chunk default %d, want %d", js.ChunkPhotons, DefaultTargetChunkPhotons)
	}
	if js.Target.Observable != mc.ObsDiffuse {
		t.Fatalf("observable default %q", js.Target.Observable)
	}
	if js.Target.MinPhotons != DefaultMinTargetChunks*DefaultTargetChunkPhotons {
		t.Fatalf("min floor %d", js.Target.MinPhotons)
	}
	if js.Target.MaxPhotons != DefaultMaxTargetPhotons {
		t.Fatalf("max default %d", js.Target.MaxPhotons)
	}
	if !js.Spec.TrackMoments {
		t.Fatal("normalized spec does not track moments")
	}
	if spec.TrackMoments {
		t.Fatal("normalize mutated the caller's spec")
	}

	// Operator cap clamps and budgets align to whole chunks.
	js2 := JobSpec{
		Spec:         slabSpec(5),
		ChunkPhotons: 300,
		Target:       &mc.Target{RelErr: 0.01, MinPhotons: 500, MaxPhotons: 10_000_000},
	}
	if err := js2.Normalize(1000); err != nil {
		t.Fatal(err)
	}
	if js2.Target.MaxPhotons != 1200 { // clamped to 1000, rounded up to 4 chunks
		t.Fatalf("cap %d, want 1200", js2.Target.MaxPhotons)
	}

	// A defaulted floor shrinks to a small budget instead of raising it…
	js3 := JobSpec{
		Spec:         slabSpec(5),
		ChunkPhotons: 10_000,
		Target:       &mc.Target{RelErr: 0.01, MaxPhotons: 50_000},
	}
	if err := js3.Normalize(0); err != nil {
		t.Fatal(err)
	}
	if js3.Target.MaxPhotons != 50_000 || js3.Target.MinPhotons != 50_000 {
		t.Fatalf("small budget mangled: min %d max %d", js3.Target.MinPhotons, js3.Target.MaxPhotons)
	}
	// …and an explicit floor above the operator cap is rejected, never
	// silently granted a bigger budget than the operator allows.
	js4 := JobSpec{
		Spec:         slabSpec(5),
		ChunkPhotons: 300,
		Target:       &mc.Target{RelErr: 0.01, MinPhotons: 10_000_000_000},
	}
	if err := js4.Normalize(1000); err == nil {
		t.Fatalf("floor above the operator cap accepted: %+v", js4.Target)
	}

	// Invalid targets are rejected.
	for _, bad := range []mc.Target{
		{RelErr: 0},
		{RelErr: 1.5},
		{RelErr: 0.1, Observable: "nonsense"},
		{RelErr: 0.1, MinPhotons: -1},
	} {
		bad := bad
		js := JobSpec{Spec: slabSpec(5), Target: &bad}
		if err := js.Normalize(0); err == nil {
			t.Fatalf("target %+v accepted", bad)
		}
	}
}

// TestPrecisionSnapshotResume round-trips an in-flight precision job
// through its journal snapshot and restore: completed chunks stay reduced, the
// estimate is restored, and the resumed job can still finish.
func TestPrecisionSnapshotResume(t *testing.T) {
	reg := New(Options{})
	startWorkers(t, reg, 2)
	spec := targetSpec(7)
	tgt := &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.008}
	out, err := reg.Submit(JobSpec{Spec: spec, ChunkPhotons: 400, Seed: 19, Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, out.Job)
	if snap.NChunks == 0 || snap.Tally.Moments == nil {
		t.Fatalf("snapshot lost the precision state: %d chunks", snap.NChunks)
	}

	// Resuming a met snapshot in a fresh registry is born done.
	reg2 := New(Options{})
	j2, err := reg2.restore(acceptedSpec(out.Job), snap)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("met snapshot did not resume as done")
	}
	res2, err := j2.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tally.Launched != res.Tally.Launched || !res2.TargetMet {
		t.Fatalf("resume changed the result: %d vs %d photons", res2.Tally.Launched, res.Tally.Launched)
	}

	// A partial snapshot (half the chunks dropped) resumes active and
	// completes over a fleet.
	partial := *snap
	partial.Completed = snap.Completed[:len(snap.Completed)/2]
	reg3 := New(Options{})
	startWorkers(t, reg3, 2)
	j3, err := reg3.restore(acceptedSpec(out.Job), &partial)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := j3.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.TargetMet {
		t.Fatal("resumed partial job finished unmet")
	}
	if got := res3.Tally.RelStdErr(tgt.Observable); got > tgt.RelErr {
		t.Fatalf("resumed job RSE %g above target", got)
	}
}
