package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/service"
)

// digest hashes everything a run depends on: due times, bodies, headers
// and expected outcomes of the warm-up, the isolated jobs and the timed
// schedule, and the tree's configuration.
func digest(t *testing.T, w *Workload) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, ops := range [][]Op{w.WarmUp, w.Idle, w.Timed} {
		binary.Write(h, binary.BigEndian, int64(len(ops)))
		for i := range ops {
			op := ops[i]
			op.Req = nil
			b, err := json.Marshal(&op)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	fmt.Fprint(h, w.Closed, w.Outstanding, w.Rate, w.LimitMS, w.GateFlags, w.QueueFlags, string(w.TenantsJSON))
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func mustGenerate(t *testing.T, name string, seed uint64, seconds float64, pass int) *Workload {
	t.Helper()
	w, err := Generate(name, seed, seconds, pass)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names {
		a, b := mustGenerate(t, name, 7, 3, 0), mustGenerate(t, name, 7, 3, 0)
		if digest(t, a) != digest(t, b) {
			t.Errorf("%s: seed 7 generated two different schedules", name)
		}
		c := mustGenerate(t, name, 8, 3, 0)
		if digest(t, a) == digest(t, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same schedule", name)
		}
	}
}

func TestPassesShareTheWarmUpOnly(t *testing.T) {
	a, b := mustGenerate(t, TenantMix, 7, 3, 1), mustGenerate(t, TenantMix, 7, 3, 2)
	for i := range a.WarmUp {
		if !bytes.Equal(a.WarmUp[i].Body, b.WarmUp[i].Body) {
			t.Fatalf("warm-up op %d differs between passes", i)
		}
	}
	seen := map[uint64]bool{}
	for _, w := range []*Workload{a, b} {
		for i := range w.Timed {
			if op := &w.Timed[i]; op.Class == ClassFresh {
				if seen[op.Req.Seed] {
					t.Fatalf("job seed %d used by two fresh jobs", op.Req.Seed)
				}
				seen[op.Req.Seed] = true
			}
		}
	}
}

func TestShardsOwnHalfTheWorkEach(t *testing.T) {
	for _, name := range Names {
		w := mustGenerate(t, name, 3, 4, 0)
		e := w.Expect()
		if e.PerShard[0] != e.PerShard[1] || e.PerShard[0] == 0 {
			t.Errorf("%s: jobs that must run split %d/%d over the shards", name, e.PerShard[0], e.PerShard[1])
		}
		// The recorded owner is the owner the gateway will compute.
		for i := range w.Timed {
			op := &w.Timed[i]
			if op.Class == ClassInvalid {
				continue
			}
			var req service.JobRequest
			if err := json.Unmarshal(op.Body, &req); err != nil {
				t.Fatalf("%s op %d: body does not decode: %v", name, i, err)
			}
			if got, err := ShardOf(&req); err != nil || got != op.Shard {
				t.Fatalf("%s op %d: body routes to shard %d (%v), recorded %d", name, i, got, err, op.Shard)
			}
			if name == BulkHead {
				break // hashing a voxel body eight times is the slow part
			}
		}
	}
}

func TestOpenLoopSchedules(t *testing.T) {
	for name, rate := range map[string]float64{SmallFresh: smallRate, TenantMix: mixRate} {
		const seconds = 10
		w := mustGenerate(t, name, 5, seconds, 0)
		if len(w.Timed) != int(rate*seconds) {
			t.Errorf("%s: %d submissions in %d s at %g/s", name, len(w.Timed), seconds, rate)
		}
		for i := 1; i < len(w.Timed); i++ {
			if w.Timed[i].Due < w.Timed[i-1].Due {
				t.Fatalf("%s: op %d is due before op %d", name, i, i-1)
			}
		}
		if last := w.Timed[len(w.Timed)-1].Due.Seconds(); last > seconds+dupDelay.Seconds() {
			t.Errorf("%s: last arrival at %.3f s of %d", name, last, seconds)
		}
	}
}

func TestTenantMixProportions(t *testing.T) {
	w := mustGenerate(t, TenantMix, 11, 20, 0)
	e := w.Expect()
	n := float64(len(w.Timed))
	for _, c := range []struct {
		what string
		got  int
		pct  float64
	}{
		{"repeat", e.Repeat, pctRepeat}, {"looser", e.Looser, pctLooser},
		{"dup", e.Dup, pctDup}, {"invalid", e.Invalid, pctInvalid},
		{"fresh", len(w.Timed) - e.Repeat - e.Looser - e.Dup - e.Invalid, pctFresh},
	} {
		if share := 100 * float64(c.got) / n; math.Abs(share-c.pct) > 1 {
			t.Errorf("%s: %.2f %% of the mix, want %g ± 1", c.what, share, c.pct)
		}
	}
	if share := 100 * float64(e.PerTenant[TenantGreedy]) / n; math.Abs(share-22.5) > 1 {
		// a quarter of every class but the 10 % of dups
		t.Errorf("greedy sends %.2f %% of the mix, want 22.5 ± 1", share)
	}
	offered := float64(e.MayShed) / w.Seconds
	if math.Abs(offered-2*w.GreedyRate) > 0.01*offered {
		t.Errorf("greedy offers %.2f valid jobs/s against a bucket of %.2f/s, want twice", offered, w.GreedyRate)
	}

	for i := range w.Timed {
		op := &w.Timed[i]
		switch op.Class {
		case ClassDup:
			orig := &w.Timed[op.Orig]
			if !bytes.Equal(op.Body, orig.Body) || orig.Class != ClassFresh || op.Orig >= i {
				t.Fatalf("dup %d does not follow an identical fresh job (orig %d)", i, op.Orig)
			}
			if op.Due-orig.Due != dupDelay {
				t.Fatalf("dup %d is due %v after its original", i, op.Due-orig.Due)
			}
			if orig.MayShed {
				t.Fatalf("dup %d follows a job that may be shed", i)
			}
		case ClassRepeat:
			if !bytes.Equal(op.Body, w.WarmUp[op.Base].Body) {
				t.Fatalf("repeat %d differs from base job %d", i, op.Base)
			}
		case ClassLooser:
			base := w.WarmUp[op.Base].Req
			if op.Req.Target == nil || op.Req.Seed != base.Seed || op.Req.ChunkPhotons != base.ChunkPhotons || !op.Req.Spec.TrackMoments {
				t.Fatalf("looser %d does not ask for base job %d's physics", i, op.Base)
			}
		case ClassInvalid:
			if op.Status != 422 || op.MayShed {
				t.Fatalf("invalid %d expects %d, may shed %v", i, op.Status, op.MayShed)
			}
		}
		if op.MayShed != (op.Tenant == TenantGreedy && op.Class != ClassInvalid) {
			t.Fatalf("op %d of tenant %s: may shed %v", i, op.Tenant, op.MayShed)
		}
	}
}

func TestBulkHeadAlternatesGeometries(t *testing.T) {
	w := mustGenerate(t, BulkHead, 2, 2, 0)
	perShard := map[int]map[string]int{0: {}, 1: {}}
	for i := range w.Timed {
		op := &w.Timed[i]
		perShard[op.Shard][op.Geometry]++
		if op.Shard != i%Shards {
			t.Errorf("job %d is on shard %d: two jobs in flight would share a worker", i, op.Shard)
		}
		if op.Photons%ChunkPhotons != 0 {
			t.Errorf("job %d has a ragged last chunk (%d photons)", i, op.Photons)
		}
	}
	for shard, geoms := range perShard {
		if geoms[GeomHead] != geoms[GeomVoxel] {
			t.Errorf("shard %d runs %d layered and %d voxel jobs", shard, geoms[GeomHead], geoms[GeomVoxel])
		}
	}
	if len(w.WarmUp) != len(w.Timed) {
		t.Errorf("warm-up has %d jobs for %d timed", len(w.WarmUp), len(w.Timed))
	}
}

func TestWorkScalesWithSeconds(t *testing.T) {
	short, long := mustGenerate(t, GridResults, 1, 10, 0), mustGenerate(t, GridResults, 1, 20, 0)
	if 2*len(short.Timed) != len(long.Timed) {
		t.Errorf("grid-results: %d jobs for 10 s, %d for 20 s", len(short.Timed), len(long.Timed))
	}
	if _, err := Generate("no-such", 1, 10, 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Generate(SmallFresh, 1, 0, 0); err == nil {
		t.Error("zero-length run accepted")
	}
}
