package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/source"
	"repro/internal/voxel"
)

// fuzzMaxBody is the body cap FuzzDecodeJobRequest runs ReadSubmission
// under: small enough that the committed "oversize" seed crosses it.
const fuzzMaxBody = 16 << 10

// readBody pushes one POST /jobs body through the real ingress.
func readBody(body []byte) (spec JobSpec, code int, ok bool) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	spec, ok = ReadSubmission(rec, req, fuzzMaxBody, nil)
	return spec, rec.Code, ok
}

// FuzzDecodeJobRequest throws arbitrary bytes at the HTTP submit decoder —
// ReadSubmission's body cap, strict JSON decode and tenant resolution, then
// the normalization and key derivation every accepted body goes through.
// Nothing may panic, a refusal must be a 4xx already written, and a body
// that is accepted as a valid job must, re-encoded from what was decoded —
// as a client's JSON, and in the compact form a gateway forwards — come
// back as the same job: same routing key, or a gateway would send one job
// to two shards depending on who serialised it, and a shard would mint an
// ID the gateway does not route to it.
//
// The committed corpus (testdata/fuzz/FuzzDecodeJobRequest) is genjob
// output; scripts/fuzz-corpus.sh regenerates it.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"spec":null,"photons":1}`))
	f.Add([]byte(`{"spec":{},"photons":-1,"tenant":"  spaced  "}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, code, ok := readBody(body)
		if !ok {
			if code < 400 || code > 499 {
				t.Fatalf("refused body answered %d, want a 4xx", code)
			}
			return
		}
		decoded := spec // RoutingKeys normalizes its argument in place
		key, pkey, err := RoutingKeys(&spec, 0)
		if err != nil {
			if !IsInvalid(err) {
				t.Fatalf("rejection of a decoded job is not an InvalidJobError: %v", err)
			}
			return
		}
		again, err := json.Marshal(JobRequest{
			Spec: decoded.Spec, Photons: decoded.TotalPhotons, ChunkPhotons: decoded.ChunkPhotons,
			Seed: decoded.Seed, Fan: decoded.Fan, Target: decoded.Target,
			ChunkTimeout: decoded.ChunkTimeout, Priority: decoded.Priority,
			Weight: decoded.Weight, Label: decoded.Label, Tenant: decoded.Tenant,
		})
		if err != nil {
			t.Fatalf("a valid decoded job does not re-encode: %v", err)
		}
		if len(again) > fuzzMaxBody {
			return // re-encoding spelled the same job longer than the cap
		}
		respec, code, ok := readBody(again)
		if !ok {
			t.Fatalf("re-encoded body refused with %d: %s", code, again)
		}
		// The hop form of the normalized spec, as the gateway sends it.
		hop, err := AppendSubmission(nil, &spec)
		if err != nil {
			t.Fatalf("a valid normalized job does not encode for the hop: %v", err)
		}
		hopspec, err := DecodeSubmission(hop)
		if err != nil {
			t.Fatalf("hop form does not decode: %v", err)
		}
		for form, sp := range map[string]*JobSpec{"re-encoded JSON": &respec, "hop form": &hopspec} {
			rekey, repkey, err := RoutingKeys(sp, 0)
			if err != nil {
				t.Fatalf("%s is no longer a valid job: %v", form, err)
			}
			if rekey != key || RouteKey(sp, rekey, repkey) != RouteKey(&spec, key, pkey) {
				t.Fatalf("keys moved across the %s: %x -> %x\nbody:    %s\nre-encoded: %s",
					form, key[:8], rekey[:8], body, again)
			}
		}
	})
}

// FuzzDecodeJournalRecord throws arbitrary bytes at the journal's two
// structured decoders — what replay runs on every record of a log whose
// frames passed their CRC. Neither may panic, the snapshot decoder may not
// size its chunk list from a count the record's length does not back, and
// a record that decodes must be a fixed point: re-encoded and decoded
// again it is the same accept (key and JobSpec) and, byte for byte, the
// same snapshot. The tally inside a snapshot is mc's compact codec, which
// bounds its own allocations (mc.MaxGridN, mc.MaxHistBins) and is not re-asserted here.
//
// The committed corpus (testdata/fuzz/FuzzDecodeJournalRecord) is an
// accept and a snapshot record of each of journalShapes;
// scripts/fuzz-corpus.sh regenerates it.
func FuzzDecodeJournalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(make([]byte, 32), `{"Spec":null,"TotalPhotons":1}`...))
	f.Add(append(make([]byte, 32), 0, 200, 1, 200, 1)) // count > bytes left

	f.Fuzz(func(t *testing.T, data []byte) {
		if key, spec, err := decodeAcceptRec(data); err == nil {
			rec, err := encodeAcceptRec(key, &spec)
			if err != nil {
				t.Fatalf("a decoded accept record does not re-encode: %v", err)
			}
			key2, spec2, err := decodeAcceptRec(rec)
			if err != nil || key2 != key || !reflect.DeepEqual(spec2, spec) {
				t.Fatalf("accept record changed across a re-encode (err %v):\n was %+v\n now %+v", err, spec, spec2)
			}
		}
		if key, snap, err := decodeSnapshotRec(data); err == nil {
			if cap(snap.Completed) > len(data) {
				t.Fatalf("%d-byte record allocated room for %d chunk ids", len(data), cap(snap.Completed))
			}
			rec := encodeSnapshotRec(key, snap.NChunks, snap.Completed, snap.Tally)
			key2, snap2, err := decodeSnapshotRec(rec)
			if err != nil || key2 != key ||
				!bytes.Equal(encodeSnapshotRec(key2, snap2.NChunks, snap2.Completed, snap2.Tally), rec) {
				t.Fatalf("snapshot record changed across a re-encode (err %v)", err)
			}
		}
	})
}

// FuzzDecodeSubmission throws arbitrary bytes at the compact submission
// decoder — what a shard runs on a gateway's forwarded POST /jobs and replay
// on every accept record. It may not panic or size anything from a length
// the data claims (the labels it returns are a window of the input), a
// label tail that disagrees with the grid's dimensions is left for
// Spec.Build's validation to refuse (TestSubmissionTailMustFillTheGrid), and
// a submission that decodes is a fixed point: re-encoded and decoded again it
// is the same JobSpec.
//
// The committed corpus (testdata/fuzz/FuzzDecodeSubmission) is the hop form
// of each of journalShapes; scripts/fuzz-corpus.sh regenerates it.
func FuzzDecodeSubmission(f *testing.F) {
	// An 18-voxel grid keeps the hand-damaged seeds short enough for the
	// mutator to reach the header; the committed corpus has the larger one.
	grid := voxel.New("tiny", 3, 3, 2, 1, 1, 1, "phantom", optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	js := JobSpec{Spec: mc.NewVoxelSpec(grid, source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}), TotalPhotons: 500, ChunkPhotons: 250, Seed: 9}
	whole, err := AppendSubmission(nil, &js)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := json.Marshal(&js) // the pre-codec accept payload: labels inline
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(whole)
	f.Add(bare)
	f.Add(whole[:2])                                                     // header length cut short
	f.Add(append([]byte{submissionCodecVersion, 0xff, 0xff, 0x7f}, '{')) // header claims 2 MB
	f.Add(whole[:len(whole)-7])                                          // tail shorter than Nx·Ny·Nz
	f.Add(append(slices.Clone(whole), 1, 2, 3))                          // and longer

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSubmission(data)
		if err != nil {
			return
		}
		if sp := spec.Spec; sp != nil && sp.Voxel != nil && len(sp.Voxel.Labels) > len(data) {
			t.Fatalf("%d-byte submission decoded %d labels", len(data), len(sp.Voxel.Labels))
		}
		again, err := AppendSubmission(nil, &spec)
		if err != nil {
			t.Fatalf("a decoded submission does not re-encode: %v", err)
		}
		spec2, err := DecodeSubmission(again)
		if err != nil || !reflect.DeepEqual(spec2, spec) {
			t.Fatalf("submission changed across a re-encode (err %v):\n was %+v\n now %+v", err, spec, spec2)
		}
		// What Submit runs on it next. A grid whose labels do not fill its
		// box must come back from Build as voxel.Grid.Validate's error, as
		// it does for a wrong-length array in client JSON — never a panic.
		if spec.Normalize(0) == nil {
			_, _ = spec.Spec.Build()
		}
	})
}

// updateCorpus rewrites the committed FuzzDecodeJournalRecord and
// FuzzDecodeSubmission seeds from the current encodings
// (scripts/fuzz-corpus.sh passes it).
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed journal and submission fuzz corpora")

// TestCommittedJournalCorpus keeps the seed corpora honest: every seed
// exists and still decodes. A committed record that stops decoding means
// the record format changed under an unchanged wal.RecordType — journals
// in the field would be skipped record by record instead of refused; a
// committed submission that stops decoding means the format between the
// tiers changed under an unchanged version byte.
func TestCommittedJournalCorpus(t *testing.T) {
	seedPath := func(name, kind string) string {
		if kind == "submission" {
			return filepath.Join("testdata", "fuzz", "FuzzDecodeSubmission", name)
		}
		return filepath.Join("testdata", "fuzz", "FuzzDecodeJournalRecord", name+"_"+kind)
	}
	for name, js := range journalShapes(t) {
		if err := js.Normalize(0); err != nil {
			t.Fatal(err)
		}
		key, _, err := keysOf(&js)
		if err != nil {
			t.Fatal(err)
		}
		if *updateCorpus {
			accept, err := encodeAcceptRec(key, &js)
			if err != nil {
				t.Fatal(err)
			}
			// Two chunks reduced, whatever the job's own chunk count.
			tally := localTallyFan(t, js.Spec, 2*js.ChunkPhotons, js.ChunkPhotons, js.Seed, js.Fan)
			snap := encodeSnapshotRec(key, max(js.NumChunks(), 2), []int{0, 1}, tally)
			for kind, data := range map[string][]byte{"accept": accept, "snapshot": snap, "submission": accept[len(key):]} {
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
				if err := os.WriteFile(seedPath(name, kind), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		for kind, decode := range map[string]func([]byte) error{
			"accept":     func(b []byte) error { _, _, err := decodeAcceptRec(b); return err },
			"snapshot":   func(b []byte) error { _, _, err := decodeSnapshotRec(b); return err },
			"submission": func(b []byte) error { _, err := DecodeSubmission(b); return err },
		} {
			raw, err := os.ReadFile(seedPath(name, kind))
			if err != nil {
				t.Errorf("corpus seed missing (run scripts/fuzz-corpus.sh): %v", err)
				continue
			}
			_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
			data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
			if err != nil {
				t.Errorf("corpus seed %s %s is not a fuzz v1 []byte literal: %v", name, kind, err)
			} else if err := decode([]byte(data)); err != nil {
				t.Errorf("committed %s of %s no longer decodes: %v", kind, name, err)
			}
		}
	}
}
