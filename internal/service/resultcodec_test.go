package service

import (
	"reflect"
	"testing"

	"repro/internal/mc"
)

// TestCompactResultCarriesEveryField: the envelope is written by hand, so a
// field added to JobResultBody must be added to it too — the count below is
// the tripwire — and every field it does carry survives a round trip set to
// a non-zero value, and unset. Flag bit 0 is retired: a result carrying it
// is refused.
func TestCompactResultCarriesEveryField(t *testing.T) {
	if n := reflect.TypeOf(JobResultBody{}).NumField(); n != 7 {
		t.Fatalf("JobResultBody has %d fields: teach AppendResult and DecodeResult the new one, then this test", n)
	}
	full := JobResultBody{
		ID: "00000000000000ab", TargetMet: true, Elapsed: 1.5,
		Target: &mc.Target{Observable: mc.ObsDetected, RelErr: 0.02, MinPhotons: 3, MaxPhotons: 1 << 40},
		Tally:  &mc.Tally{Launched: 9, LayerAbsorbed: []float64{1, 0, 2}, LayerReached: []int64{0, 4, 5}, LayerEnteredWeight: []float64{0, 0, 3}},
	}
	full.Key[0], full.Key[31], full.PhysicsKey[0], full.PhysicsKey[31] = 1, 2, 3, 4
	for name, res := range map[string]JobResultBody{
		"full":  full,
		"plain": {ID: "1", Tally: full.Tally},
	} {
		back, err := DecodeResult(AppendResult(nil, &res))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*back, res) {
			t.Errorf("%s result changed across the compact codec:\n was %+v\n now %+v", name, res, *back)
		}
	}
	retired := AppendResult(nil, &full)
	retired[1] |= 1
	if _, err := DecodeResult(retired); err == nil {
		t.Fatal("a compact result with the retired flag bit 0 set was accepted")
	}
}
