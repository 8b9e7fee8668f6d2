package load

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/bench/workload"
	"repro/internal/service"
)

// TestCheckDuplicates pins what Check takes from a duplicate: coalesced
// onto its original's ID, or — when it came late — from the cache under
// any ID, or as a job of its own whose tally may differ from the
// original's in the last bits of a float and no further.
func TestCheckDuplicates(t *testing.T) {
	w, err := workload.Generate(workload.TenantMix, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	di := -1
	for i := range w.Timed {
		if w.Timed[i].Class == workload.ClassDup {
			di = i
			break
		}
	}
	if di < 0 {
		t.Fatal("no duplicate in two seconds of tenant-mix")
	}
	dup := &w.Timed[di]
	orig := &w.Timed[dup.Orig]
	tally, err := runInProcess(orig.Req)
	if err != nil {
		t.Fatal(err)
	}
	result := func(id string, edit func(string) string) []byte {
		raw, err := json.Marshal(tally)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			raw = []byte(edit(string(raw)))
		}
		body, err := json.Marshal(resultBody{ID: id, Tally: raw})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// The same tally with one float (a path moment, outside the energy
	// balance) written with more digits than a float64 holds.
	lastBits := func(s string) string {
		const key = `"SumWX2":`
		i := strings.Index(s, key) + len(key)
		j := i + strings.IndexAny(s[i:], ",}")
		if !strings.Contains(s[i:j], ".") || strings.ContainsAny(s[i:j], "eE") {
			t.Fatalf("cannot extend %s", s[i:j])
		}
		return s[:j] + "01" + s[j:]
	}
	for _, tc := range []struct {
		name     string
		accepted service.JobAccepted
		status   int
		edit     func(string) string
		ok       bool
		late     int
	}{
		{"coalesced", service.JobAccepted{ID: "a", Coalesced: true}, 200, nil, true, 0},
		{"coalesced onto another job", service.JobAccepted{ID: "b", Coalesced: true}, 200, nil, false, 0},
		{"late, gateway cache", service.JobAccepted{ID: "a", Cached: true}, 200, nil, true, 1},
		{"late, shard cache", service.JobAccepted{ID: "b", Cached: true}, 200, nil, true, 1},
		{"late, cached tally differs", service.JobAccepted{ID: "b", Cached: true}, 200, lastBits, false, 1},
		{"late, ran again", service.JobAccepted{ID: "b"}, 201, nil, true, 1},
		{"late, ran again, last bits", service.JobAccepted{ID: "b"}, 201, lastBits, true, 1},
		{"late, ran again, other photons", service.JobAccepted{ID: "b"}, 201,
			func(s string) string { return strings.Replace(s, `"Launched":1024`, `"Launched":1023`, 1) }, false, 1},
		{"neither hit nor new", service.JobAccepted{ID: "a"}, 200, nil, false, 0},
	} {
		out := &Outcome{Records: make([]Record, len(w.Timed))}
		for i := range out.Records {
			// Every other request failed in transport: not this test's matter.
			out.Records[i] = Record{Op: &w.Timed[i], Err: "not sent"}
		}
		out.Records[dup.Orig] = Record{Op: orig, Status: http.StatusCreated,
			Accepted: service.JobAccepted{ID: "a"}, ResultStatus: 200, Body: result("a", nil)}
		out.Records[di] = Record{Op: dup, Status: tc.status, Accepted: tc.accepted,
			ResultStatus: 200, Body: result(tc.accepted.ID, tc.edit)}
		c := Check(out, nil, nil)
		if !c.OK[dup.Orig] {
			t.Fatalf("%s: the original failed: %v", tc.name, c.Failures)
		}
		if c.OK[di] != tc.ok || c.LateDups != tc.late {
			t.Errorf("%s: ok %v, late %d; want %v, %d (%v)", tc.name, c.OK[di], c.LateDups, tc.ok, tc.late, c.Failures)
		}
	}
}
