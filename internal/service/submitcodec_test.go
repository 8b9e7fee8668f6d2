package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/mc"
)

// TestSubmissionCarriesEveryField is TestAcceptRecordCarriesEveryField's
// reflection walk over the hop form: every exported field of JobSpec —
// present and future — survives AppendSubmission/DecodeSubmission, and
// encoding writes to nothing the caller handed in: not the spec, not the
// grid, not the label array other live jobs may be reading.
func TestSubmissionCarriesEveryField(t *testing.T) {
	var full JobSpec
	n := 0
	fillExported(t, reflect.ValueOf(&full).Elem(), &n)
	spec, grid := full.Spec, full.Spec.Voxel
	labels := unsafe.SliceData(grid.Labels)
	before := *spec

	data, err := AppendSubmission(nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	if full.Spec != spec || !reflect.DeepEqual(*spec, before) || spec.Voxel != grid ||
		unsafe.SliceData(grid.Labels) != labels || len(grid.Labels) != 1 {
		t.Fatal("AppendSubmission wrote to the caller's spec or grid")
	}
	got, err := DecodeSubmission(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("hop form dropped or changed a JobSpec field:\n sent %+v\n  got %+v", full, got)
	}
	if !bytes.Contains(data, []byte(`"Labels":null`)) || data[len(data)-1] != grid.Labels[0] {
		t.Fatalf("labels are not elided from the header and carried raw behind it: %q", data)
	}
}

// TestSubmissionLeavesSharedGridShared: two live jobs on Equal grids hold
// one (Registry.shareGrid); journaling either one's accept record — which
// elides the labels on a copy — must leave the shared grid whole.
func TestSubmissionLeavesSharedGridShared(t *testing.T) {
	reg, wl, _ := journaledRegistry(t, t.TempDir(), 0, Options{})
	defer wl.Close()
	var jobs []*Job
	for seed := uint64(1); seed <= 2; seed++ {
		out, err := reg.Submit(JobSpec{Spec: voxelSpec(t), TotalPhotons: 500, ChunkPhotons: 250, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, out.Job)
	}
	shared := jobs[0].spec.Spec.Voxel
	if jobs[1].spec.Spec.Voxel != shared {
		t.Fatal("Equal grids of two live jobs are not shared")
	}
	if err := reg.CompactJournal(); err != nil { // re-encodes both accept records
		t.Fatal(err)
	}
	if jobs[1].spec.Spec.Voxel != shared || !shared.Equal(voxelSpec(t).Voxel) {
		t.Fatal("journaling a job's accept record damaged the grid it shares")
	}
}

// TestSubmissionTailMustFillTheGrid: a label tail shorter or longer than
// Nx·Ny·Nz decodes — nothing is sized from it — and is refused where a
// wrong-length array in client JSON is, with the same status.
func TestSubmissionTailMustFillTheGrid(t *testing.T) {
	ts := httptest.NewServer(NewAPI(New(Options{})).Handler())
	defer ts.Close()
	post := func(contentType string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	js := JobSpec{Spec: voxelSpec(t), TotalPhotons: 500, ChunkPhotons: 250, Seed: 9}
	short := *js.Spec
	short.Voxel = js.Spec.Voxel.WithLabels(js.Spec.Voxel.Labels[:100])
	shortBody, err := EncodeJSON(JobRequest{Spec: &short, Photons: 500, ChunkPhotons: 250, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wantCode, wantBody := post("application/json", shortBody)
	if wantCode < 400 || !strings.Contains(wantBody, "labels for") {
		t.Fatalf("JSON with a short label array: http %d %s", wantCode, wantBody)
	}
	whole, err := AppendSubmission(nil, &js)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"short": whole[:len(whole)-7],
		"long":  append(bytes.Clone(whole), 1, 2, 3),
	} {
		if code, raw := post(SubmissionCompactType, body); code != wantCode || !strings.Contains(raw, "labels for") {
			t.Errorf("%s tail: http %d %s, want the %d a short JSON array gets", name, code, raw, wantCode)
		}
	}
	if code, raw := post(SubmissionCompactType, whole); code != http.StatusCreated {
		t.Fatalf("whole compact submission: http %d %s", code, raw)
	}
}

// TestReplayParentJournal replays testdata/parent_journal — one segment
// written by the mcqueue binary of the commit before the compact accept
// record (94459714: JSON accept records, labels base64 inline), holding a
// tiny slab, the paper's +Inf-thick head, a 6×6×4 voxel grid and a
// precision-target job, an accept and a final snapshot each, beside each
// job's result as that binary served it (its compact result, transcoded
// once into the JSON body a shard serves; the tallies round-trip
// bit-exactly). Every job must come back Done with a bit-exact tally under
// its keys, and the journal the replay
// rewrites — in today's encoding — must do the same. The fixed-count jobs
// come back under their original IDs. The precision job tracks moments, so
// its ID's top 32 bits, the shard-selecting ones, now come from its physics
// key (JobID): it comes back under those over its old ID's low 32 bits, and
// its old ID names nothing.
func TestReplayParentJournal(t *testing.T) {
	const fixture = "testdata/parent_journal"
	results, err := filepath.Glob(filepath.Join(fixture, "*.json"))
	if err != nil || len(results) != 4 {
		t.Fatalf("fixture results: %v, %v", results, err)
	}
	dir := t.TempDir()
	seg, err := os.ReadFile(filepath.Join(fixture, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for pass, form := range []string{"the parent's journal", "its rewrite by this build"} {
		reg, wl, restored := replayInto(t, dir, Options{})
		if restored != len(results) {
			t.Fatalf("%s: replay restored %d jobs, want %d", form, restored, len(results))
		}
		precision := 0
		for _, path := range results {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want JobResultBody
			if err := json.Unmarshal(raw, &want); err != nil || want.Tally == nil {
				t.Fatalf("%s: %v", path, err)
			}
			id, err := strconv.ParseUint(want.ID, 16, 64)
			if err != nil {
				t.Fatalf("%s: bad id %q", path, want.ID)
			}
			if want.Target != nil {
				precision++
				if reg.Get(id) != nil {
					t.Fatalf("%s: precision job still under its content-key ID %s", form, want.ID)
				}
				id = uint64(binary.BigEndian.Uint32(want.PhysicsKey[:4]))<<32 | id&math.MaxUint32
			}
			j := reg.Get(id)
			if j == nil {
				t.Fatalf("%s: job %s is not under %016x", form, want.ID, id)
			}
			res, err := j.Wait(time.Second)
			if err != nil {
				t.Fatalf("%s: job %s is not Done: %v", form, want.ID, err)
			}
			if j.key != want.Key || j.pkey != want.PhysicsKey {
				t.Errorf("%s: job %s replayed under other keys", form, want.ID)
			}
			if !bytes.Equal(mc.AppendTally(nil, res.Tally), mc.AppendTally(nil, want.Tally)) {
				t.Errorf("%s: job %s replayed to a different tally", form, want.ID)
			}
		}
		if precision != 1 {
			t.Fatalf("fixture holds %d precision jobs, want 1", precision)
		}
		if pass == 0 {
			// Replay re-journaled every job; leave only that.
			if err := reg.CompactJournal(); err != nil {
				t.Fatal(err)
			}
		}
		wl.Close()
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, seg := range segs {
		rewritten, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(rewritten, []byte(`"Labels":"`)) || !bytes.Contains(rewritten, []byte(`"Labels":null`)) {
			t.Fatalf("%s still holds a grid as inline base64 after compaction", filepath.Base(seg))
		}
	}
}

// submitVoxelBodies renders the benchmark's voxel-head submission the three
// ways it exists: a client's JSON, the compact form a gateway forwards, and
// the accept record a shard journals.
func submitVoxelBodies(tb testing.TB) (spec JobSpec, key Key, jsonBody, compact, accept []byte) {
	tb.Helper()
	spec = benchVoxelHeadJob(tb)
	jsonBody, err := EncodeJSON(JobRequest{Spec: spec.Spec, Photons: spec.TotalPhotons,
		ChunkPhotons: spec.ChunkPhotons, Seed: spec.Seed})
	if err != nil {
		tb.Fatal(err)
	}
	key, _, err = RoutingKeys(&spec, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if compact, err = AppendSubmission(nil, &spec); err != nil {
		tb.Fatal(err)
	}
	if accept, err = encodeAcceptRec(key, &spec); err != nil {
		tb.Fatal(err)
	}
	return spec, key, jsonBody, compact, accept
}

// readVoxelBody pushes one body through the ingress the way a tier's
// handler does.
func readVoxelBody(tb testing.TB, contentType string, body []byte) JobSpec {
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	spec, ok := ReadSubmission(httptest.NewRecorder(), req, 0, nil)
	if !ok || len(spec.Spec.Voxel.Labels) != 120*120*80 {
		tb.Fatal("voxel-head body refused or cut short")
	}
	return spec
}

// TestForwardedVoxelCostsOneGrid: reading the forwarded form and writing
// the accept record each allocate one grid's worth (1 152 000 labels) and
// small change — no doubling buffer, no base64 text, no second copy.
func TestForwardedVoxelCostsOneGrid(t *testing.T) {
	if raceEnabled {
		// Under the race detector slices.Grow's append(s, make(...)...)
		// really allocates its operand.
		t.Skip("allocation sizes are only meaningful without -race")
	}
	spec, key, _, compact, _ := submitVoxelBodies(t)
	perOp := func(f func()) uint64 {
		const n = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	const oneGrid = 1_300_000
	if got := perOp(func() { readVoxelBody(t, SubmissionCompactType, compact) }); got > oneGrid {
		t.Errorf("reading the forwarded voxel head allocates %d B, want ≤ %d", got, oneGrid)
	}
	if got := perOp(func() {
		if _, err := encodeAcceptRec(key, &spec); err != nil {
			t.Fatal(err)
		}
	}); got > oneGrid {
		t.Errorf("encoding the voxel head's accept record allocates %d B, want ≤ %d", got, oneGrid)
	}
}

var submitSink JobSpec

// BenchmarkSubmitVoxel times the voxel head's way into a shard, stage by
// stage: the client's JSON read at the edge, the compact form read behind a
// gateway, and the journal's accept record written and replayed. `make
// submit-bench` prints the medians.
func BenchmarkSubmitVoxel(b *testing.B) {
	spec, key, jsonBody, compact, accept := submitVoxelBodies(b)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"json-decode", func() { submitSink = readVoxelBody(b, "application/json", jsonBody) }},
		{"compact-decode", func() { submitSink = readVoxelBody(b, SubmissionCompactType, compact) }},
		{"accept-encode", func() {
			rec, err := encodeAcceptRec(key, &spec)
			if err != nil || len(rec) != len(accept) {
				b.Fatal("accept record changed size", err)
			}
		}},
		{"accept-decode", func() {
			_, back, err := decodeAcceptRec(accept)
			if err != nil {
				b.Fatal(err)
			}
			submitSink = back
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(spec.Spec.Voxel.Labels)))
			for b.Loop() {
				c.op()
			}
		})
	}
}
