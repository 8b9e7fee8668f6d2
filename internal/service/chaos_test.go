package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
)

// killConn injects deterministic transport death: the connection errors
// (and closes, so the server side unblocks too) after budget writes.
// Because protocol.Conn flushes once per Send, the budget counts frames —
// a small budget kills the worker mid-grant with computed-but-unflushed
// results in its buffer, the abrupt-death case no drain can soften.
type killConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	budget int
}

func (c *killConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	kill := c.writes > c.budget
	c.mu.Unlock()
	if kill {
		c.Conn.Close()
		return 0, errors.New("chaos: injected connection death")
	}
	return c.Conn.Write(p)
}

// startChaosWorkers runs n workers that are repeatedly killed and
// restarted: attempt k of each worker dies after 4·2^k frames, so early
// sessions die mid-batch (losing unflushed pre-reductions, abandoning
// granted chunks) while later ones live long enough to guarantee
// progress.
func startChaosWorkers(t *testing.T, reg *Registry, n int) {
	t.Helper()
	stop := make(chan struct{})
	var mu sync.Mutex
	live := make(map[int]net.Conn)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("chaos-%c", 'a'+i)
		go func(i int, name string) {
			for attempt := 0; ; attempt++ {
				select {
				case <-stop:
					return
				default:
				}
				server, client := net.Pipe()
				go reg.HandleConn(server)
				budget := 4 << uint(attempt)
				if budget > 1<<20 {
					budget = 1 << 20
				}
				kc := &killConn{Conn: client, budget: budget}
				mu.Lock()
				live[i] = kc
				mu.Unlock()
				_, _ = batchClient(kc, name, 3)
				kc.Conn.Close()
			}
		}(i, name)
	}
	t.Cleanup(func() {
		close(stop)
		mu.Lock()
		for _, c := range live {
			c.Close()
		}
		mu.Unlock()
	})
}

// TestChaosFleetReproducesReduction is the kill/restart end-to-end check:
// a 3-worker fleet whose workers die mid-batch and reconnect — with
// timeout reassignment armed and fan > 1 — must still reproduce the
// single-stream reduction exactly, for a fixed-count job and for a
// precision-targeted one (whose reduced chunk set, whatever the chaos
// made it, must merge to the same tally as computing those streams
// locally).
func TestChaosFleetReproducesReduction(t *testing.T) {
	oreg := obs.NewRegistry()
	reg := New(Options{Policy: FairShare(), Obs: oreg})
	startChaosWorkers(t, reg, 3)

	fixedSpec := slabSpec(5)
	const total, chunk, seed, fan = 3000, 250, 11, 2
	precSpec := targetSpec(7)
	const pChunk, pSeed = 400, 19

	fixed, err := reg.Submit(JobSpec{
		Spec: fixedSpec, TotalPhotons: total, ChunkPhotons: chunk, Seed: seed,
		Fan: fan, ChunkTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	prec, err := reg.Submit(JobSpec{
		Spec: precSpec, ChunkPhotons: pChunk, Seed: pSeed, Fan: fan,
		Target:       &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.015, MinPhotons: 4000},
		ChunkTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var fixedRes, precRes *Result
	var errF, errP error
	wg.Add(2)
	go func() { defer wg.Done(); fixedRes, errF = fixed.Job.Wait(120 * time.Second) }()
	go func() { defer wg.Done(); precRes, errP = prec.Job.Wait(120 * time.Second) }()
	wg.Wait()
	if errF != nil || errP != nil {
		t.Fatal(errF, errP)
	}

	// Fixed-count: identical to the standalone fan-matched decomposition.
	wantFixed := localTallyFan(t, fixedSpec, total, chunk, seed, fan)
	compareTallies(t, "fixed", fixedRes.Tally, wantFixed)

	// Precision: rebuild exactly the chunk set the chaos run reduced and
	// reproduce its tally stream by stream.
	if !precRes.TargetMet {
		t.Fatalf("precision job finished unmet after %d photons", precRes.Tally.Launched)
	}
	reg.mu.Lock()
	var reduced []int
	for id, c := range prec.Job.chunks {
		if c.phase == phaseDone {
			reduced = append(reduced, id)
		}
	}
	reg.mu.Unlock()
	if len(reduced) == 0 {
		t.Fatal("precision job reduced no chunks")
	}
	cfg, err := precSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantPrec := mc.NewTally(cfg)
	for _, id := range reduced {
		tt, err := mc.RunStreamFan(cfg, pChunk, pSeed, id, 0, fan)
		if err != nil {
			t.Fatal(err)
		}
		if err := wantPrec.Merge(tt); err != nil {
			t.Fatal(err)
		}
	}
	if precRes.Tally.Launched != int64(len(reduced))*pChunk {
		t.Fatalf("launched %d != %d reduced chunks × %d",
			precRes.Tally.Launched, len(reduced), pChunk)
	}
	compareTallies(t, "precision", precRes.Tally, wantPrec)

	// The chaos must actually have exercised the recovery paths —
	// otherwise this test silently degrades to the plain e2e one.
	st := reg.Stats()
	if fixedRes.Reassigned+precRes.Reassigned == 0 {
		t.Error("no chunk was ever reassigned; kill budgets too generous to test recovery")
	}
	if st.Workers > 3 {
		t.Errorf("stats count %d workers, max 3 live", st.Workers)
	}

	// The exported metrics must tell the same recovery story as the
	// internal ledgers: every reassignment of these two jobs appears in
	// the reassigned counter, and the per-reason reject series sum to
	// exactly the registry's reject count.
	var buf bytes.Buffer
	if err := oreg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseExposition(t, buf.Bytes())
	if got, want := m["service_chunks_reassigned_total"], float64(fixedRes.Reassigned+precRes.Reassigned); got != want {
		t.Errorf("scraped reassigned %g != job ledgers %g", got, want)
	}
	rejects := m[`service_results_rejected_total{reason="stale"}`] +
		m[`service_results_rejected_total{reason="batch"}`] +
		m[`service_results_rejected_total{reason="benign"}`]
	if rejects != float64(st.RejectedResults) {
		t.Errorf("scraped rejects by reason sum to %g, stats say %d", rejects, st.RejectedResults)
	}
	if got, want := m["service_chunks_completed_total"], float64(total/chunk+len(reduced)); got != want {
		t.Errorf("scraped completions %g, want %g reduced chunks", got, want)
	}
	if m["service_photons_reduced_total"] != float64(st.PhotonsCompleted) {
		t.Errorf("scraped photons %g != stats %d",
			m["service_photons_reduced_total"], st.PhotonsCompleted)
	}
	if m["fleet_reconnects_total"] == 0 {
		t.Error("chaos restarts never counted as reconnects")
	}
	checkChunkBooks(t, fixed.Job)
	checkChunkBooks(t, prec.Job)
}

// compareTallies asserts the distributed tally matches the local
// reduction: integer observables exactly, weight sums to the usual
// merge-order tolerance, and the moment accumulators' exact parts
// (sample counts, photon weights) exactly.
func compareTallies(t *testing.T, label string, got, want *mc.Tally) {
	t.Helper()
	if got.Launched != want.Launched || got.DetectedCount != want.DetectedCount {
		t.Fatalf("%s: launched/detected %d/%d, want %d/%d",
			label, got.Launched, got.DetectedCount, want.Launched, want.DetectedCount)
	}
	for _, c := range []struct {
		name     string
		got, min float64
	}{
		{"diffuse", got.DiffuseWeight, want.DiffuseWeight},
		{"absorbed", got.AbsorbedWeight, want.AbsorbedWeight},
		{"transmit", got.TransmitWeight, want.TransmitWeight},
		{"detected", got.DetectedWeight, want.DetectedWeight},
	} {
		if math.Abs(c.got-c.min) > 1e-9 {
			t.Fatalf("%s: %s weight %g != local %g", label, c.name, c.got, c.min)
		}
	}
	if (got.Moments == nil) != (want.Moments == nil) {
		t.Fatalf("%s: moments presence differs", label)
	}
	if got.Moments != nil {
		if got.Moments.Diffuse.N != want.Moments.Diffuse.N {
			t.Fatalf("%s: moment samples %d != %d", label, got.Moments.Diffuse.N, want.Moments.Diffuse.N)
		}
		if got.Moments.Diffuse.SumW != want.Moments.Diffuse.SumW {
			t.Fatalf("%s: moment weight %g != %g", label, got.Moments.Diffuse.SumW, want.Moments.Diffuse.SumW)
		}
	}
}
