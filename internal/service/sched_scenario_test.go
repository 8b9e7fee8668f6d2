package service

import (
	"bytes"
	"fmt"
)

// The scripted scheduling scenario behind testdata/sched_picks_*.golden.
// This file is the same, byte for byte, at the commit that recorded the
// goldens (d980d97, against the four policy adapter types that commit
// had) and here (against the one scheduler): only the schedDriver under
// it differs. Every weight is a power of two and every charge an integer,
// so each virtual-time tag is exact in a float64 and the sequences do not
// depend on rounding.

// schedJob is one job of the scenario, as a cross-job scheduler sees it.
type schedJob struct {
	id, seq  uint64
	tenant   string
	tweight  float64
	priority int
	weight   float64
	chunk    int64 // photons per grant
	left     int64 // photons not yet granted; the last grant is short
	hidden   bool  // active but momentarily without a grantable chunk
}

// schedDriver is what the scenario asks of a scheduler under test. pick
// receives the schedulable jobs in submission order, as the registry's
// active list is, and returns an index into them.
type schedDriver interface {
	pick(cands []*schedJob) int
	charge(j *schedJob, work int64)
	forget(id uint64)
}

// scenarioTenants is the tenant table: the outer weights.
var scenarioTenants = map[string]float64{"a": 4, "b": 2, "c": 1, "d": 8}

type schedScenario struct {
	d      schedDriver
	seq    uint64
	active []*schedJob // submission order
	picks  []uint64
	lcg    uint64
}

// arrive submits a job of chunks grants (the last one short by a third).
func (s *schedScenario) arrive(tenant string, priority int, weight float64, chunk int64, chunks int) *schedJob {
	s.seq++
	j := &schedJob{
		// IDs are content-derived in the service, so not ordered like seq.
		id: (s.seq*0x9E3779B97F4A7C15)>>44 | 1, seq: s.seq,
		tenant: tenant, tweight: scenarioTenants[tenant],
		priority: priority, weight: weight,
		chunk: chunk, left: chunk*int64(chunks) - chunk/3,
	}
	s.active = append(s.active, j)
	return j
}

// leave removes a job from the active set and tells the scheduler.
func (s *schedScenario) leave(j *schedJob) {
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			s.d.forget(j.id)
			return
		}
	}
}

// serve runs up to n dispatches: one pick, then 1–3 grants of the picked
// job, each charged on its own (the registry's multi-chunk grant). A job
// whose last photon is granted leaves.
func (s *schedScenario) serve(n int) {
	for ; n > 0; n-- {
		var cands []*schedJob
		for _, j := range s.active {
			if !j.hidden {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			return
		}
		j := cands[s.d.pick(cands)]
		s.picks = append(s.picks, j.id)
		for g := 1 + len(s.picks)%3; g > 0 && j.left > 0; g-- {
			work := min(j.chunk, j.left)
			j.left -= work
			s.d.charge(j, work)
		}
		if j.left == 0 {
			s.leave(j)
		}
	}
}

func (s *schedScenario) rand(n int) int {
	s.lcg = s.lcg*6364136223846793005 + 1442695040888963407
	return int((s.lcg >> 33) % uint64(n))
}

// runSchedScenario plays the script against d and returns the picked job
// IDs in order.
func runSchedScenario(d schedDriver) []uint64 {
	s := &schedScenario{d: d, lcg: 18}

	// Three tenants, three priority levels, job weights 1–4.
	s.arrive("a", 0, 1, 230, 12)
	a2 := s.arrive("a", 2, 2, 128, 20)
	s.arrive("b", 1, 1, 1000, 6)
	c1 := s.arrive("c", 0, 4, 64, 30)
	s.serve(40)
	// Mid-run arrivals, one from a tenant not seen before.
	s.arrive("b", 2, 1, 230, 9)
	s.arrive("d", 1, 8, 100, 40)
	s.serve(40)
	// A job with everything out on workers drops out of sight and returns.
	a2.hidden = true
	s.serve(10)
	a2.hidden = false
	// Cancelling c's only job empties the tenant; it returns later.
	s.leave(c1)
	s.serve(20)
	s.arrive("c", 1, 2, 230, 8)
	s.serve(60)
	// Drain everything, then start again from an empty scheduler.
	s.serve(1 << 20)
	s.arrive("b", 0, 2, 64, 10)
	s.arrive("a", 0, 1, 64, 10)
	s.arrive("b", 1, 4, 1000, 3)
	s.serve(1 << 20)

	// A seeded tail of arrivals, cancels, hides and dispatches.
	tenants := []string{"a", "b", "c", "d"}
	weights := []float64{1, 2, 4, 8}
	chunks := []int64{64, 100, 230, 1000}
	for step := 0; step < 600; step++ {
		switch r := s.rand(10); {
		case r == 0 || len(s.active) == 0:
			s.arrive(tenants[s.rand(4)], s.rand(3), weights[s.rand(4)], chunks[s.rand(4)], 3+s.rand(18))
		case r == 1:
			s.leave(s.active[s.rand(len(s.active))])
		case r == 2:
			j := s.active[s.rand(len(s.active))]
			j.hidden = !j.hidden
		default:
			s.serve(1)
		}
	}
	for _, j := range s.active {
		j.hidden = false
	}
	s.serve(1 << 20)
	return s.picks
}

// formatPicks is the golden files' layout: decimal job IDs, twenty a line.
func formatPicks(picks []uint64) []byte {
	var b bytes.Buffer
	for i, id := range picks {
		sep := " "
		if i%20 == 19 || i == len(picks)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "%d%s", id, sep)
	}
	return b.Bytes()
}
