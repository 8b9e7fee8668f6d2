package sched

import "testing"

// serveTJ runs n equal quanta through a TwoLevel over the candidate set
// and returns per-tenant and per-job service totals.
func serveTJ(tl *TwoLevel, cands []TenantJob, n int, quantum float64) (map[string]float64, map[uint64]float64) {
	byTenant := make(map[string]float64)
	byJob := make(map[uint64]float64)
	for i := 0; i < n; i++ {
		k := tl.Pick(cands)
		c := cands[k]
		byTenant[c.Tenant] += quantum
		byJob[c.Job] += quantum
		tl.Charge(c.Job, quantum)
	}
	return byTenant, byJob
}

func TestTwoLevelTenantWeightedRatio(t *testing.T) {
	// Tenant a (weight 3) queues two jobs, tenant b (weight 1) one job.
	// Outer fairness must hold 3:1 between tenants regardless of job
	// counts, and a's allocation must split evenly between its two jobs.
	tl := NewTwoLevel()
	cands := []TenantJob{
		{Tenant: "a", TenantWeight: 3, Job: 1, JobWeight: 1},
		{Tenant: "a", TenantWeight: 3, Job: 2, JobWeight: 1},
		{Tenant: "b", TenantWeight: 1, Job: 3, JobWeight: 1},
	}
	byTenant, byJob := serveTJ(tl, cands, 400, 5)
	if r := byTenant["a"] / byTenant["b"]; r < 2.8 || r > 3.2 {
		t.Fatalf("3:1 tenant weights served at ratio %.2f: %v", r, byTenant)
	}
	if r := byJob[1] / byJob[2]; r < 0.9 || r > 1.1 {
		t.Fatalf("equal-weight jobs inside a tenant split %.2f:1: %v", r, byJob)
	}
}

func TestTwoLevelManyJobsDoNotInflateTenantShare(t *testing.T) {
	// Tenant noisy floods 8 jobs; tenant quiet has 1. Equal tenant weights
	// must still split the fleet 50/50 — per-job FIFO or flat fair share
	// would give noisy 8/9ths.
	tl := NewTwoLevel()
	var cands []TenantJob
	for j := uint64(1); j <= 8; j++ {
		cands = append(cands, TenantJob{Tenant: "noisy", TenantWeight: 1, Job: j, JobWeight: 1})
	}
	cands = append(cands, TenantJob{Tenant: "quiet", TenantWeight: 1, Job: 9, JobWeight: 1})
	byTenant, _ := serveTJ(tl, cands, 400, 10)
	if r := byTenant["noisy"] / byTenant["quiet"]; r < 0.9 || r > 1.1 {
		t.Fatalf("flooding tenant got %.2fx the quiet tenant: %v", r, byTenant)
	}
}

func TestTwoLevelInnerJobWeights(t *testing.T) {
	// One tenant, two jobs at 3:1 job weights: the inner level alone
	// decides, reproducing flat FairShare behaviour.
	tl := NewTwoLevel()
	cands := []TenantJob{
		{Tenant: "t", TenantWeight: 1, Job: 1, JobWeight: 3},
		{Tenant: "t", TenantWeight: 1, Job: 2, JobWeight: 1},
	}
	_, byJob := serveTJ(tl, cands, 400, 5)
	if r := byJob[1] / byJob[2]; r < 2.8 || r > 3.2 {
		t.Fatalf("3:1 job weights served at ratio %.2f: %v", r, byJob)
	}
}

func TestTwoLevelForgetDropsEmptyTenant(t *testing.T) {
	tl := NewTwoLevel()
	cands := []TenantJob{
		{Tenant: "a", TenantWeight: 1, Job: 1, JobWeight: 1},
		{Tenant: "b", TenantWeight: 1, Job: 2, JobWeight: 1},
	}
	serveTJ(tl, cands, 100, 10)
	tl.Forget(1)
	if tl.tenants.Len() != 1 || len(tl.jobs) != 1 {
		t.Fatalf("tenant a not dropped with its last job: %d tenants, %d inner schedulers",
			tl.tenants.Len(), len(tl.jobs))
	}
	// Tenant a returns later: it must re-enter at the frontier, not claim
	// a catch-up deficit that starves b.
	cands[0].Job = 3
	byTenant, _ := serveTJ(tl, cands, 100, 10)
	if byTenant["b"] < 400 {
		t.Fatalf("incumbent starved by returning tenant: %v", byTenant)
	}
}

func TestTwoLevelPickEmpty(t *testing.T) {
	if k := NewTwoLevel().Pick(nil); k != -1 {
		t.Fatalf("pick on empty candidates = %d, want -1", k)
	}
}

func TestTwoLevelChargeUnknownJobIsNoop(t *testing.T) {
	tl := NewTwoLevel()
	tl.Charge(42, 100) // never Picked; must not panic or register state
	if tl.tenants.Len() != 0 || len(tl.owner) != 0 {
		t.Fatalf("charge on unknown job created state")
	}
}

func TestTwoLevelPriorityIsAStrictTier(t *testing.T) {
	// The low-priority job belongs to the tenant furthest behind on
	// service and still waits: fairness decides only among the candidates
	// of the highest priority present.
	tl := NewTwoLevel()
	cands := []TenantJob{
		{Tenant: "a", TenantWeight: 1, Job: 1, JobWeight: 1},
		{Tenant: "b", TenantWeight: 1, Job: 2, JobWeight: 1, Priority: 2},
		{Tenant: "b", TenantWeight: 1, Job: 3, JobWeight: 1, Priority: 2},
	}
	_, byJob := serveTJ(tl, cands, 100, 10)
	if byJob[1] != 0 || byJob[2] != byJob[3] {
		t.Fatalf("priority 2 jobs should split everything evenly: %v", byJob)
	}
	// With the tier gone the starved tenant is served first.
	if k := tl.Pick(cands[:1]); k != 0 {
		t.Fatalf("pick = %d, want the only candidate", k)
	}
}

func TestTwoLevelPickDoesNotAllocate(t *testing.T) {
	tl := NewTwoLevel()
	var cands []TenantJob
	for j := uint64(1); j <= 30; j++ {
		cands = append(cands, TenantJob{Tenant: string(rune('a' + j%3)), TenantWeight: 1,
			Job: j, JobWeight: 1, Priority: int(j % 2)})
	}
	if n := testing.AllocsPerRun(100, func() { tl.Charge(cands[tl.Pick(cands)].Job, 1) }); n != 0 {
		t.Fatalf("Pick over known flows allocates %v times, want 0", n)
	}
}
