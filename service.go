package phomc

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/service"
)

// Multi-job simulation service, re-exported from internal/service: a
// long-lived registry of concurrent jobs drained by one shared worker
// fleet, with cross-job scheduling policies, content-addressed answers to
// repeated submissions and an HTTP JSON control plane (see cmd/mcqueue).
type (
	// JobRegistry owns concurrent simulation jobs and the shared fleet.
	JobRegistry = service.Registry
	// RegistryOptions configure a JobRegistry (policy, retention, admission).
	RegistryOptions = service.Options
	// ServiceJobSpec describes one job submitted to a registry.
	ServiceJobSpec = service.JobSpec
	// ServiceJob is a handle on a submitted job (Wait, Status, Done).
	ServiceJob = service.Job
	// JobStatus is a point-in-time job snapshot with progress counters.
	JobStatus = service.JobStatus
	// RegistryStats is the fleet/queue health snapshot (GET /stats).
	RegistryStats = service.Stats
	// SchedulingPolicy picks which job's chunk an idle worker receives.
	SchedulingPolicy = service.Policy
	// MetricsRegistry collects the service's counters, gauges and
	// histograms and serves them as Prometheus text exposition. Pass one
	// as RegistryOptions.Obs (or WorkerOptions.Obs / JobOptions.Obs) and
	// mount NewMetricsHandler wherever the embedder's mux lives.
	MetricsRegistry = obs.Registry
	// JobEvent is one entry of a job's bounded lifecycle trace
	// (GET /jobs/{id}/events).
	JobEvent = obs.Event
	// ChunkSpan is one chunk's cross-process timing decomposition —
	// queue-wait, wire, compute, reduce — carried by the chunk's
	// chunk-completed JobEvent (GET /jobs/{id}/spans lists the spans a
	// job's event ring retains).
	ChunkSpan = obs.Span
	// FleetSession is one live worker session's profile: its Hello's
	// identity and build, and the server's accounting of it, speed
	// included (GET /fleet).
	FleetSession = service.SessionStatus
	// AdmissionPolicy decides per tenant whether a fresh submission is
	// accepted (RegistryOptions.Admission); refusals surface as
	// ShedErrors (HTTP 429 + Retry-After).
	AdmissionPolicy = service.AdmissionPolicy
	// TenantTable maps tenant names to admission/scheduling classes — the
	// mcqueue -tenants payload (service.LoadTenantTable reads it).
	TenantTable = service.TenantTable
	// TenantClass is one tenant's rate, quota and weight envelope.
	TenantClass = service.TenantClass
	// ShedError reports a refused submission: tenant, reason
	// (cap | tenant_rate | tenant_quota) and a computed retry hint.
	ShedError = service.ShedError
	// TenantStatus is one tenant's live rollup (GET /tenants, GET /fleet).
	TenantStatus = service.TenantStatus
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsHandler serves reg as a Prometheus text-exposition scrape
// endpoint (the body of GET /metrics).
func NewMetricsHandler(reg *MetricsRegistry) http.Handler { return reg.Handler() }

// NewJobRegistry returns an empty multi-job registry. Submit jobs with
// Submit, serve workers with Serve/HandleConn, and expose the HTTP API
// with NewServiceHandler.
func NewJobRegistry(opts RegistryOptions) *JobRegistry { return service.New(opts) }

// NewServiceHandler wraps a registry in the HTTP JSON API:
// POST /jobs, GET /jobs, GET /jobs/{id}, GET /jobs/{id}/result,
// GET /jobs/{id}/events, GET /jobs/{id}/spans, DELETE /jobs/{id},
// GET /stats, GET /fleet, GET /tenants.
func NewServiceHandler(reg *JobRegistry) http.Handler {
	return service.NewAPI(reg).Handler()
}

// Cross-job scheduling policies.

// FIFOPolicy drains jobs strictly in submission order.
func FIFOPolicy() SchedulingPolicy { return service.FIFO() }

// PriorityPolicy serves the highest JobSpec.Priority first.
func PriorityPolicy() SchedulingPolicy { return service.Priority() }

// FairSharePolicy interleaves concurrent jobs in proportion to their
// weights (start-time fair queueing over assigned photons).
func FairSharePolicy() SchedulingPolicy { return service.FairShare() }

// TenantFairSharePolicy stacks fair queueing two levels deep: fleet
// throughput splits across tenants by their table weights, then within a
// tenant across its jobs — so no tenant can grow its share by submitting
// more jobs.
func TenantFairSharePolicy() SchedulingPolicy { return service.TenantFairShare() }

// TokenBucketAdmission builds the per-tenant token-bucket admission
// policy from a tenant table (pass as RegistryOptions.Admission, with the
// table itself as RegistryOptions.Tenants for scheduling weights).
func TokenBucketAdmission(table *TenantTable) AdmissionPolicy {
	return service.NewTokenBucket(table, nil)
}
