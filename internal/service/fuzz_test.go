package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzMaxBody is the body cap FuzzDecodeJobRequest runs ReadSubmission
// under: small enough that the committed "oversize" seed crosses it.
const fuzzMaxBody = 16 << 10

// readBody pushes one POST /jobs body through the real ingress.
func readBody(body []byte) (spec JobSpec, raw []byte, code int, ok bool) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	spec, raw, ok = ReadSubmission(rec, req, fuzzMaxBody)
	return spec, raw, rec.Code, ok
}

// FuzzDecodeJobRequest throws arbitrary bytes at the HTTP submit decoder —
// ReadSubmission's body cap, strict JSON decode and tenant resolution, then
// the normalization and key derivation every accepted body goes through.
// Nothing may panic, a refusal must be a 4xx already written, and a body
// that is accepted as a valid job must, re-encoded from what was decoded,
// come back as the same job: same routing key, or a gateway would send one
// job to two shards depending on who serialised it.
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
		spec, raw, code, ok := readBody(body)
		if !ok {
			if code < 400 || code > 499 {
				t.Fatalf("refused body answered %d, want a 4xx", code)
			}
			return
		}
		if !bytes.Equal(raw, body) {
			t.Fatal("accepted body is not forwarded as received")
		}
		decoded := spec // RoutingKeys normalizes its argument in place
		key, _, err := RoutingKeys(&spec, 0)
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
		respec, _, code, ok := readBody(again)
		if !ok {
			t.Fatalf("re-encoded body refused with %d: %s", code, again)
		}
		rekey, _, err := RoutingKeys(&respec, 0)
		if err != nil {
			t.Fatalf("re-encoded body is no longer a valid job: %v", err)
		}
		if rekey != key {
			t.Fatalf("routing key moved across a re-encode: %x -> %x\nbody:    %s\nre-encoded: %s",
				key[:8], rekey[:8], body, again)
		}
	})
}
