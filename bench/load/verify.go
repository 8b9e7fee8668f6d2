package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/bench/workload"
	"repro/internal/mc"
	"repro/internal/service"
)

// Checked is the verdict on one pass: which requests ended the way the
// generator said they must, and why the others did not.
type Checked struct {
	// OK[i] says record i matched its expectation and, if it carried a
	// result, that the result passed every output check.
	OK []bool
	// Shed[i] says record i was a 429 the schedule allowed.
	Shed []bool
	// Failures describes up to maxFailures failed records.
	Failures []string
	Failed   int
	// Recomputed counts the results compared against an in-process run.
	Recomputed int
	// LateDups counts the duplicates that found their original finished.
	LateDups int
}

const maxFailures = 20

// resultBody mirrors service.JobResultBody but keeps the tally's bytes, so
// that answers served from a cache can be compared byte for byte with the
// answer they were cached from.
type resultBody struct {
	ID       string          `json:"id"`
	CacheHit bool            `json:"cacheHit"`
	Tally    json.RawMessage `json:"tally"`
}

// Check verifies one pass. warm is the warm-up pass of the same tree (the
// base set the schedule's repeats refer to); it may be nil when the ops
// have no Base. sample picks the records recomputed in process.
func Check(out, warm *Outcome, sample []int) *Checked {
	c := &Checked{OK: make([]bool, len(out.Records)), Shed: make([]bool, len(out.Records))}
	tallies := make([]json.RawMessage, len(out.Records))
	bases := map[int]json.RawMessage{} // warm-up tallies, decoded once each
	fail := func(r *Record, format string, args ...any) {
		c.Failed++
		if len(c.Failures) < maxFailures {
			c.Failures = append(c.Failures, fmt.Sprintf("op %d (%s): ", r.Op.Seq, r.Op.Class)+fmt.Sprintf(format, args...))
		}
	}
	for i := range out.Records {
		r := &out.Records[i]
		op := r.Op
		switch {
		case r.Err != "":
			fail(r, "%s", r.Err)
			continue
		case r.Status == http.StatusTooManyRequests && op.MayShed:
			if r.RetryAfter == "" {
				fail(r, "429 without Retry-After")
				continue
			}
			c.OK[i], c.Shed[i] = true, true
			continue
		case r.Status != op.Status && !lateDup(r):
			fail(r, "POST /jobs answered %d, want %d", r.Status, op.Status)
			continue
		case !r.HasJob():
			c.OK[i] = true // a refusal the schedule asked for
			continue
		}
		if lateDup(r) {
			c.LateDups++
		} else if r.Accepted.Cached != op.Cached || r.Accepted.Coalesced != op.Coalesced {
			fail(r, "accepted cached=%v coalesced=%v, want cached=%v coalesced=%v",
				r.Accepted.Cached, r.Accepted.Coalesced, op.Cached, op.Coalesced)
			continue
		}
		if r.ResultStatus != http.StatusOK {
			fail(r, "GET result answered %d", r.ResultStatus)
			continue
		}
		var body resultBody
		if err := json.Unmarshal(r.Body, &body); err != nil {
			fail(r, "undecodable result: %v", err)
			continue
		}
		var t mc.Tally
		if err := json.Unmarshal(body.Tally, &t); err != nil {
			fail(r, "undecodable tally: %v", err)
			continue
		}
		if t.Launched != op.Photons {
			fail(r, "launched %d photons, asked for %d", t.Launched, op.Photons)
			continue
		}
		if bal := t.EnergyBalance(); math.Abs(bal) > 1e-9*float64(t.Launched) {
			fail(r, "energy balance %g over %d photons", bal, t.Launched)
			continue
		}
		tallies[i] = body.Tally
		var want json.RawMessage
		switch {
		case op.Base >= 0 && warm != nil:
			if bases[op.Base] == nil {
				var base resultBody
				if err := json.Unmarshal(warm.Records[op.Base].Body, &base); err != nil || base.Tally == nil {
					fail(r, "base job %d has no decodable result: %v", op.Base, err)
					continue
				}
				bases[op.Base] = base.Tally
			}
			want = bases[op.Base]
		case op.Orig >= 0:
			if r.Accepted.Coalesced && r.Accepted.ID != out.Records[op.Orig].Accepted.ID {
				fail(r, "coalesced onto job %s, the original is %s", r.Accepted.ID, out.Records[op.Orig].Accepted.ID)
				continue
			}
			want = tallies[op.Orig]
			if r.Status == http.StatusCreated {
				// It ran again, and the fleet merges chunk tallies in arrival
				// order: equal to the original's as recompute compares.
				if err := equalJSON(want, body.Tally, "tally"); err != nil {
					fail(r, "ran again and differs from the original: %v", err)
					continue
				}
				want = nil
			}
		}
		if want != nil && !bytes.Equal(want, body.Tally) {
			fail(r, "tally differs from the job it was answered from")
			continue
		}
		c.OK[i] = true
	}
	for _, i := range sample {
		r := &out.Records[i]
		if !c.OK[i] || tallies[i] == nil {
			continue
		}
		if err := recompute(r.Op.Req, tallies[i]); err != nil {
			c.OK[i] = false
			fail(r, "recomputed in process: %v", err)
			continue
		}
		c.Recomputed++
	}
	return c
}

// lateDup reports whether r is a duplicate that was accepted but did not
// coalesce. A duplicate is due a few milliseconds after its original and
// should find it in flight; which answer is right depends on when it
// arrives, and a stall of the host or of the submit connection can hold it
// back. Once the original has finished it is answered from the cache (200,
// cached: under the original's ID by the gateway's tier, as a job of its
// own by the shard's). In the milliseconds between — the registry drops a
// finished job from its in-flight table, journals the final snapshot, and
// only then caches the result — it is a new job (201). Both are right
// answers; Check accepts and counts them, and holds their tallies to the
// original's all the same.
func lateDup(r *Record) bool {
	return r.Op.Class == workload.ClassDup && r.HasJob() && !r.Accepted.Coalesced &&
		(r.Accepted.Cached || r.Status == http.StatusCreated)
}

// Sample picks the records to recompute: at least want of them and at
// least one per geometry, spread evenly over the schedule, stopping early
// only when budget photons have been spent and every geometry is covered.
func Sample(ops []workload.Op, want int, budget int64) []int {
	var keyed []int
	for i := range ops {
		if ops[i].Status == http.StatusCreated && ops[i].Req != nil {
			keyed = append(keyed, i)
		}
	}
	if len(keyed) == 0 {
		return nil
	}
	var picked []int
	seen := map[string]bool{}
	spent := int64(0)
	take := func(i int) {
		picked = append(picked, i)
		seen[ops[i].Geometry] = true
		spent += ops[i].Photons
	}
	step := len(keyed) / want
	if step < 1 {
		step = 1
	}
	for k := 0; k < len(keyed) && len(picked) < want && spent < budget; k += step {
		take(keyed[k])
	}
	for _, i := range keyed {
		if !seen[ops[i].Geometry] {
			take(i)
		}
	}
	return picked
}

// recompute runs the job in this process, chunk by chunk in stream order
// as the fleet's reduction contract defines it, and compares: integers
// must match exactly, floats to 1e-9 relative (the fleet merges chunk
// tallies in arrival order, so the last bits of a float sum may differ).
func recompute(req *service.JobRequest, got json.RawMessage) error {
	total, err := runInProcess(req)
	if err != nil {
		return err
	}
	want, err := json.Marshal(total)
	if err != nil {
		return err
	}
	return equalJSON(want, got, "tally")
}

// runInProcess computes req's tally in this process.
func runInProcess(req *service.JobRequest) (*mc.Tally, error) {
	cfg, err := req.Spec.Build()
	if err != nil {
		return nil, err
	}
	chunks := int((req.Photons + req.ChunkPhotons - 1) / req.ChunkPhotons)
	var total *mc.Tally
	left := req.Photons
	for s := 0; s < chunks; s++ {
		n := min(req.ChunkPhotons, left)
		left -= n
		t, err := mc.RunStreamFan(cfg, n, req.Seed, s, chunks, req.Fan)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = t
		} else if err := total.Merge(t); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// equalJSON compares two JSON documents structurally. Numbers written
// without fraction or exponent on both sides are integers and must be
// equal as text; all others are compared as floats to 1e-9 relative.
func equalJSON(want, got []byte, path string) error {
	var a, b any
	for _, p := range []struct {
		src []byte
		dst *any
	}{{want, &a}, {got, &b}} {
		dec := json.NewDecoder(bytes.NewReader(p.src))
		dec.UseNumber()
		if err := dec.Decode(p.dst); err != nil {
			return err
		}
	}
	return equalValue(a, b, path)
}

func isInt(n json.Number) bool { return !strings.ContainsAny(string(n), ".eE") }

func equalValue(a, b any, path string) error {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: objects differ in shape", path)
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing", path, k)
			}
			if err := equalValue(v, w, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: arrays differ in length", path)
		}
		for i := range x {
			if err := equalValue(x[i], y[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case json.Number:
		y, ok := b.(json.Number)
		if !ok {
			return fmt.Errorf("%s: %v is not a number", path, b)
		}
		if isInt(x) && isInt(y) {
			if x != y {
				return fmt.Errorf("%s: %s, want %s", path, y, x)
			}
			return nil
		}
		fx, err1 := x.Float64()
		fy, err2 := y.Float64()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s: unparsable number", path)
		}
		if math.Abs(fx-fy) > 1e-9*math.Max(math.Abs(fx), math.Abs(fy)) {
			return fmt.Errorf("%s: %s, want %s", path, y, x)
		}
	default:
		if a != b {
			return fmt.Errorf("%s: %v, want %v", path, b, a)
		}
	}
	return nil
}
