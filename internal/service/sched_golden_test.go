package service

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/sched"
)

// unifiedDriver plays the scenario against the one scheduler the way
// assignLocked does: candidates as the policy shows them, charges only
// where the policy charges, every departure forgotten.
type unifiedDriver struct {
	p     Policy
	tl    *sched.TwoLevel
	cands []sched.TenantJob
}

func (d *unifiedDriver) pick(jobs []*schedJob) int {
	d.cands = d.cands[:0]
	for _, j := range jobs {
		d.cands = append(d.cands, d.p.candidate(&Job{
			id: j.id, tweight: j.tweight,
			spec: JobSpec{Tenant: j.tenant, Priority: j.priority, Weight: j.weight},
		}))
	}
	return d.tl.Pick(d.cands)
}

func (d *unifiedDriver) charge(j *schedJob, work int64) {
	if d.p.charge {
		d.tl.Charge(j.id, float64(work))
	}
}

func (d *unifiedDriver) forget(id uint64) { d.tl.Forget(id) }

// TestSchedulerReproducesRecordedPicks holds the one scheduler to the pick
// sequences the four policy types it replaced produced over
// runSchedScenario. The goldens were recorded at d980d97 — by this same
// scenario file under a driver that called that commit's
// Policy.Pick/Charge/Forget — and are history: there is no -update.
func TestSchedulerReproducesRecordedPicks(t *testing.T) {
	for name, p := range map[string]Policy{
		"fifo": FIFO(), "priority": Priority(), "fair": FairShare(), "tenant-fair": TenantFairShare(),
	} {
		want, err := os.ReadFile("testdata/sched_picks_" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := formatPicks(runSchedScenario(&unifiedDriver{p: p, tl: sched.NewTwoLevel()}))
		if !bytes.Equal(got, want) {
			gf, wf := bytes.Fields(got), bytes.Fields(want)
			i := 0
			for i < len(gf) && i < len(wf) && bytes.Equal(gf[i], wf[i]) {
				i++
			}
			t.Errorf("%s: %d picks, recorded %d; first divergence at pick %d", name, len(gf), len(wf), i)
		}
	}
}
