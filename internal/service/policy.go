package service

import "repro/internal/sched"

// Policy names one configuration of the registry's cross-job scheduler,
// sched.TwoLevel: what of a job the scheduler is shown and whether grants
// are charged to it. The zero value is FIFO. The four constructors below
// are the configurations the service offers (-policy on mcqueue).
type Policy struct {
	// charge: every granted chunk advances its job's (and tenant's)
	// virtual time by photons/weight — weighted fair share. Off, no tag
	// ever moves and jobs drain in submission order.
	charge bool
	// tenants: jobs compete under their tenant, by the tenant table's
	// weights, before they compete with each other. Off, every job sits
	// under one tenant.
	tenants bool
	// priority: JobSpec.Priority is a strict tier above the rest.
	priority bool
}

// FIFO returns the first-come-first-served cross-job policy: the oldest
// job with pending work drains completely before the next starts.
func FIFO() Policy { return Policy{} }

// Priority returns the strict-priority policy: higher JobSpec.Priority
// pre-empts lower at every assignment; equal priorities drain FIFO.
func Priority() Policy { return Policy{priority: true} }

// FairShare returns the weighted fair-share policy: concurrent jobs
// receive fleet throughput proportional to JobSpec.Weight, and a job
// submitted mid-run competes from the current service frontier instead of
// starving the incumbents.
func FairShare() Policy { return Policy{charge: true} }

// TenantFairShare returns the two-level tenant→job fair-share policy: each
// tenant receives fleet throughput proportional to its table weight no
// matter how many jobs it queues, and a tenant's allocation splits across
// its own jobs by job weight.
func TenantFairShare() Policy { return Policy{charge: true, tenants: true} }

// Name is the policy's spelling in Stats.Policy and the logs.
func (p Policy) Name() string {
	switch {
	case p.tenants:
		return "tenant-fair"
	case p.charge:
		return "fair-share"
	case p.priority:
		return "priority"
	}
	return "fifo"
}

// candidate is job j as this configuration shows it to the scheduler.
func (p Policy) candidate(j *Job) sched.TenantJob {
	c := sched.TenantJob{Job: j.id, JobWeight: j.spec.Weight}
	if p.tenants {
		c.Tenant, c.TenantWeight = j.spec.Tenant, j.tweight
	}
	if p.priority {
		c.Priority = j.spec.Priority
	}
	return c
}

// PolicyByName maps the CLI spelling to a policy; unknown names fall back
// to FIFO with ok=false.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "fifo", "":
		return FIFO(), true
	case "priority":
		return Priority(), true
	case "fair", "fair-share", "fairshare":
		return FairShare(), true
	case "tenant-fair", "tenant", "tenantfair":
		return TenantFairShare(), true
	default:
		return FIFO(), false
	}
}
