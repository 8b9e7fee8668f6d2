package service

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/mc"
)

// TestKeyStableAcrossGobHistory pins the regression that motivated the
// JSON-based key: gob assigns wire type IDs from a process-global
// first-encode-wins counter, so hashing a gob stream gave different keys
// depending on what the process had gob-encoded before (connecting a
// worker — whose protocol is gob — before the first submission was enough
// to change every job ID, which broke journal replay's ID stability).
// The content key must not move when unrelated gob encodes run first.
func TestKeyStableAcrossGobHistory(t *testing.T) {
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 1}
	before := contentKey(t, js)

	// Churn the global gob type registry with types the key path also
	// encodes, plus some it does not.
	type noise struct {
		A mc.Spec
		B []string
		C map[string]int
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(noise{A: *slabSpec(7), B: []string{"x"}, C: map[string]int{"y": 1}}); err != nil {
		t.Fatal(err)
	}

	if after := contentKey(t, js); before != after {
		t.Fatalf("content key moved after unrelated gob encodes: %s -> %s", before, after)
	}
}
