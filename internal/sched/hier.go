package sched

// TwoLevel is the service's one cross-job scheduler: two stacked layers of
// start-time fair queueing in a tenant→job hierarchy, under a strict
// priority tier. The outer level is a weighted competition between tenants
// and, inside the winning tenant, the inner level one between that tenant's
// jobs. The outer level guarantees each tenant its weighted share of fleet
// throughput no matter how many jobs it queues — one tenant submitting a
// hundred jobs still gets one tenant's share — while the inner level
// splits the tenant's allocation across its own jobs by job weight.
//
// Both levels obey the FairShare late-joiner rule, so a tenant that goes
// idle and returns competes from the current service frontier rather than
// draining an accumulated deficit. Like FairShare, TwoLevel is not
// goroutine-safe; callers serialise access.
type TwoLevel struct {
	tenants *FairShare[string]
	jobs    map[string]*FairShare[uint64]
	owner   map[uint64]string // job → tenant, for Charge/Forget by job id
}

// TenantJob names one schedulable job and its position in the hierarchy.
// Weights ≤ 0 count as 1.
type TenantJob struct {
	Tenant       string
	TenantWeight float64
	Job          uint64
	JobWeight    float64
	// Priority is the strict tier: only candidates at the highest priority
	// present compete; fairness decides among them.
	Priority int
}

// NewTwoLevel returns an empty hierarchy at virtual time zero.
func NewTwoLevel() *TwoLevel {
	return &TwoLevel{
		tenants: NewFairShare[string](),
		jobs:    make(map[string]*FairShare[uint64]),
		owner:   make(map[uint64]string),
	}
}

// Pick returns the index into cands of the job to serve next, or -1 if
// cands is empty: among the candidates of the highest priority present,
// first the tenant with the smallest outer tag, then that tenant's job
// with the smallest inner tag; the earlier candidate wins ties at both
// levels. Unseen tenants and jobs are registered at the current virtual
// frontier. A Pick over flows it has seen before allocates nothing.
func (tl *TwoLevel) Pick(cands []TenantJob) int {
	if len(cands) == 0 {
		return -1
	}
	top := cands[0].Priority
	for _, c := range cands[1:] {
		top = max(top, c.Priority)
	}
	// Register everything in sight. A tenant's outer tag is the same on
	// each of its candidates, so the first top-tier candidate holding the
	// smallest one names the tenant that appears first among the tied —
	// no list of distinct tenants is needed.
	var winner *fsFlow
	var winnerName string
	for _, c := range cands {
		tf := tl.tenants.observe(c.Tenant, c.TenantWeight)
		tl.jobFS(c.Tenant).observe(c.Job, c.JobWeight)
		tl.owner[c.Job] = c.Tenant
		if c.Priority == top && (winner == nil || tf.tag < winner.tag) {
			winner, winnerName = tf, c.Tenant
		}
	}
	// Inner pick over the winning tenant's top-tier candidates only.
	inner := tl.jobs[winnerName].flows
	best := -1
	for i, c := range cands {
		if c.Priority != top || c.Tenant != winnerName {
			continue
		}
		if best == -1 || inner[c.Job].tag < inner[cands[best].Job].tag {
			best = i
		}
	}
	return best
}

// Charge accounts work units of service to job at both levels: the job's
// inner tag advances by work/jobWeight and its tenant's outer tag by
// work/tenantWeight, so heavy service to one job dilates its whole
// tenant's claim on the fleet.
func (tl *TwoLevel) Charge(job uint64, work float64) {
	tenant, ok := tl.owner[job]
	if !ok {
		return // never Picked; nothing to account against
	}
	tl.tenants.Charge(tenant, work)
	tl.jobFS(tenant).Charge(job, work)
}

// Forget drops a finished job; when a tenant's last job leaves, the
// tenant's outer flow is dropped too, so a returning tenant re-enters at
// the frontier like any late joiner.
func (tl *TwoLevel) Forget(job uint64) {
	tenant, ok := tl.owner[job]
	if !ok {
		return
	}
	delete(tl.owner, job)
	fs := tl.jobFS(tenant)
	fs.Forget(job)
	if fs.Len() == 0 {
		delete(tl.jobs, tenant)
		tl.tenants.Forget(tenant)
	}
}

func (tl *TwoLevel) jobFS(tenant string) *FairShare[uint64] {
	fs, ok := tl.jobs[tenant]
	if !ok {
		fs = NewFairShare[uint64]()
		tl.jobs[tenant] = fs
	}
	return fs
}
