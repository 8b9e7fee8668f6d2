// Crash-chaos end-to-end test: a real mcqueue binary is SIGKILLed at
// each WAL crashpoint mid-fleet-run, restarted on the same journal, and
// must lose no accepted job and finish with a tally byte-identical to an
// uninterrupted run's. The worker lives in the test process and rides
// across the restart on WorkLoop's reconnect backoff — exactly the
// production fleet shape.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/distsys"
	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/wal"
)

var mcqueueBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mcqueue-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mcqueueBin = filepath.Join(dir, "mcqueue")
	if out, err := exec.Command("go", "build", "-o", mcqueueBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building mcqueue: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// freeAddr reserves an ephemeral localhost port and returns it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

type queueProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
	// done closes when the process has been reaped; err then holds what
	// Wait returned. Closing (rather than sending one value) lets the
	// crash-wait, shutdown and Cleanup all observe the exit — a one-shot
	// send deadlocked Cleanup after shutdown had consumed it.
	done chan struct{}
	err  error
}

// startQueue launches the mcqueue binary with a tiny WAL geometry (2 KiB
// segments, 8 KiB compaction trigger, snapshot every 2 chunks) so every
// crashpoint is reachable within one small job. crashEnv arms a
// fault-injection crashpoint in the child; nil runs it clean.
func startQueue(t *testing.T, fleetAddr, httpAddr, walDir string, crashEnv []string) *queueProc {
	t.Helper()
	cmd := exec.Command(mcqueueBin,
		"-addr", fleetAddr, "-http", httpAddr,
		"-wal-dir", walDir,
		"-wal-fsync", "interval",
		"-wal-segment-bytes", "2048",
		"-wal-compact-bytes", "8192",
		"-wal-snapshot-every", "2")
	env := os.Environ()[:0:0]
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, fault.EnvPoint+"=") || strings.HasPrefix(kv, fault.EnvAfter+"=") {
			continue
		}
		env = append(env, kv)
	}
	cmd.Env = append(env, crashEnv...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting mcqueue: %v", err)
	}
	qp := &queueProc{cmd: cmd, out: &out, done: make(chan struct{})}
	go func() { qp.err = cmd.Wait(); close(qp.done) }()
	t.Cleanup(func() {
		select {
		case <-qp.done:
		default:
			cmd.Process.Kill()
			<-qp.done
		}
	})
	return qp
}

// waitReady polls /readyz — which mcqueue holds down until the journal
// replay has finished — so no request races the recovery.
func waitReady(t *testing.T, httpAddr string, qp *queueProc) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("mcqueue never became ready\n%s", qp.out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosJob is sized so a 2 KiB-segment journal rotates many times and
// crosses the 8 KiB compaction trigger before the job finishes: 128
// chunks, a snapshot every 2.
func chaosJobBody(t *testing.T) []byte {
	t.Helper()
	spec := mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	body, err := json.Marshal(map[string]any{
		"spec": spec, "photons": 32000, "chunkPhotons": 250, "seed": 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func submitJob(t *testing.T, httpAddr string) (string, error) {
	t.Helper()
	resp, err := http.Post("http://"+httpAddr+"/jobs", "application/json",
		bytes.NewReader(chaosJobBody(t)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: http %d", resp.StatusCode)
	}
	return acc.ID, nil
}

// startWorker attaches a reconnecting single-flush worker to the fleet
// address. FlushChunks 1 with one worker makes the reduction order fully
// deterministic, which is what lets the test demand byte-identical
// tallies rather than approximately equal ones.
func startWorker(t *testing.T, fleetAddr string) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go distsys.WorkLoopTCP(fleetAddr,
		distsys.WorkerOptions{Name: "chaos", FlushChunks: 1, Stop: stop},
		distsys.LoopOptions{Reconnect: true, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond})
}

// waitTally polls the job to completion and returns the tally's raw JSON
// (the result body's elapsed field varies run to run; the tally must not).
func waitTally(t *testing.T, httpAddr, id string, timeout time.Duration) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get("http://" + httpAddr + "/jobs/" + id + "/result")
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				var body struct {
					Tally json.RawMessage `json:"tally"`
				}
				err := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return body.Tally
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				t.Fatalf("job %s lost: result returned 404", id)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// soleJobID recovers the job ID from GET /jobs — the fallback when the
// crash severed the submit response after the accept was journaled.
func soleJobID(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("restarted registry has %d jobs, want the 1 accepted before the crash", len(list))
	}
	return list[0].ID
}

func metricValue(t *testing.T, httpAddr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func shutdown(t *testing.T, qp *queueProc) {
	t.Helper()
	qp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-qp.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("mcqueue did not exit on SIGTERM\n%s", qp.out.String())
	}
}

// TestCrashChaosEndToEnd SIGKILLs a live mcqueue at every WAL crashpoint
// in turn — torn frame staged on disk, post-append pre-fsync, mid
// segment rotation, mid compaction (new segment durable, old ones not
// yet unlinked) — then restarts on the same journal and requires (a) the
// accepted job is still there, (b) it completes, and (c) its tally is
// byte-identical to an uninterrupted run's.
func TestCrashChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("crash chaos e2e is not short")
	}

	// Baseline: same binary, same WAL geometry, never interrupted.
	baseFleet, baseHTTP := freeAddr(t), freeAddr(t)
	base := startQueue(t, baseFleet, baseHTTP, t.TempDir(), nil)
	waitReady(t, baseHTTP, base)
	startWorker(t, baseFleet)
	baseID, err := submitJob(t, baseHTTP)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	baseTally := waitTally(t, baseHTTP, baseID, 2*time.Minute)
	shutdown(t, base)

	points := []struct {
		point string
		after int
	}{
		// The journal of this job is its accept record, then a snapshot
		// every two chunks (64 of them), the last one final. The 4th append
		// tears the third snapshot mid-frame — replay falls back to the
		// second — and the 6th dies holding an unsynced page: both after
		// the accept, both far from the final snapshot.
		{"wal.mid-append", 4},
		{"wal.post-append", 6},
		{"wal.mid-rotation", 1},
		{"wal.mid-compaction", 1},
	}
	for _, pt := range points {
		t.Run(pt.point, func(t *testing.T) {
			fleetAddr, httpAddr := freeAddr(t), freeAddr(t)
			walDir := t.TempDir()
			crashed := startQueue(t, fleetAddr, httpAddr, walDir, []string{
				fault.EnvPoint + "=" + pt.point,
				fault.EnvAfter + "=" + fmt.Sprint(pt.after),
			})
			waitReady(t, httpAddr, crashed)
			startWorker(t, fleetAddr)
			id, submitErr := submitJob(t, httpAddr)

			// The armed crashpoint fires as the fleet reduces; the child
			// must die by SIGKILL, not finish and not exit cleanly.
			select {
			case <-crashed.done:
				ee, ok := crashed.err.(*exec.ExitError)
				if !ok || ee.ProcessState.String() != "signal: killed" {
					t.Fatalf("child died with %v, want SIGKILL\n%s", crashed.err, crashed.out.String())
				}
			case <-time.After(2 * time.Minute):
				t.Fatalf("crashpoint %s never fired\n%s", pt.point, crashed.out.String())
			}

			// Restart, disarmed, on the same journal and ports.
			restarted := startQueue(t, fleetAddr, httpAddr, walDir, nil)
			waitReady(t, httpAddr, restarted)
			if replayed := metricValue(t, httpAddr, "wal_replay_records_total"); replayed <= 0 {
				t.Fatalf("restart replayed %v journal records, want > 0", replayed)
			}
			if submitErr != nil {
				// The crash raced the submit response; the accept record
				// still made the journal or the job list below fails.
				t.Logf("submit response lost to the crash (%v); recovering ID", submitErr)
				id = soleJobID(t, httpAddr)
			}
			if id != baseID {
				t.Fatalf("job ID %s differs from baseline %s: content key unstable", id, baseID)
			}
			tally := waitTally(t, httpAddr, id, 2*time.Minute)
			if !bytes.Equal(tally, baseTally) {
				t.Fatalf("resumed tally differs from uninterrupted run\nbase: %.120s...\ngot:  %.120s...",
					baseTally, tally)
			}
			shutdown(t, restarted)

			// SIGTERM compacts: what is left is the finished job's accept
			// record and its final snapshot, nothing else.
			wl, rep, err := wal.Open(wal.Options{Dir: walDir})
			if err != nil {
				t.Fatal(err)
			}
			wl.Close()
			var mix []wal.RecordType
			for _, rec := range rep.Records {
				mix = append(mix, rec.Type)
			}
			if want := []wal.RecordType{wal.RecJobAccepted, wal.RecSnapshot}; !slices.Equal(mix, want) {
				t.Fatalf("compacted journal holds record types %v, want %v", mix, want)
			}
		})
	}
}

// TestRefusesRetiredJournal: a journal holding a record of a retired type
// was written by an older release. mcqueue must exit naming the type and
// the remedy, before /readyz ever flips — never serve on half a replay.
func TestRefusesRetiredJournal(t *testing.T) {
	walDir := t.TempDir()
	wl, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Append(wal.RecJobAcceptedGob, []byte("a gob accept stream of the previous release")); err != nil {
		t.Fatal(err)
	}
	wl.Close()

	httpAddr := freeAddr(t)
	qp := startQueue(t, freeAddr(t), httpAddr, walDir, nil)
	select {
	case <-qp.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("mcqueue kept running on a retired-format journal\n%s", qp.out.String())
	}
	if qp.err == nil {
		t.Fatalf("mcqueue exited 0 on a retired-format journal\n%s", qp.out.String())
	}
	for _, want := range []string{"retired type 1", "finish or discard"} {
		if !strings.Contains(qp.out.String(), want) {
			t.Fatalf("refusal does not say %q:\n%s", want, qp.out.String())
		}
	}
	if resp, err := http.Get("http://" + httpAddr + "/readyz"); err == nil {
		resp.Body.Close()
		t.Fatalf("/readyz answered %d after the refusal", resp.StatusCode)
	}
}
