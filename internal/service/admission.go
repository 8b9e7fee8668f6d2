package service

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the tenant every unattributed submission belongs to
// (empty JobSpec.Tenant and requests without an X-MC-Tenant header).
const DefaultTenant = "default"

// MaxTenantNameLen bounds tenant names at ingress; longer names are a 400.
// Tenant names label metrics series, so the bound also caps label bytes.
const MaxTenantNameLen = 64

// Shed reasons — the `reason` label values of service_jobs_shed_total and
// the Reason field of ShedError.
const (
	// ShedReasonCap: the registry's global MaxActiveJobs cap was reached.
	ShedReasonCap = "cap"
	// ShedReasonTenantRate: the tenant's job-submission token bucket is empty.
	ShedReasonTenantRate = "tenant_rate"
	// ShedReasonTenantQuota: the tenant's photon quota bucket cannot cover
	// the submission's photon cost.
	ShedReasonTenantQuota = "tenant_quota"
)

// ShedError is returned by Registry.Submit when admission refuses a fresh
// job. It wraps ErrOverloaded (so existing errors.Is checks keep working)
// and carries the machine-readable verdict the HTTP layer turns into a
// 429 with a computed Retry-After.
type ShedError struct {
	Tenant     string
	Reason     string // ShedReasonCap | ShedReasonTenantRate | ShedReasonTenantQuota
	RetryAfter time.Duration
	Detail     string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v: tenant %q shed (%s): %s", ErrOverloaded, e.Tenant, e.Reason, e.Detail)
}

func (e *ShedError) Unwrap() error { return ErrOverloaded }

// TenantClass is one tenant's admission and scheduling envelope. The zero
// value is fully open: no rate limit, no photon quota, weight 1.
type TenantClass struct {
	// JobsPerSec refills the tenant's job-submission token bucket;
	// 0 disables job-rate limiting for the tenant.
	JobsPerSec float64 `json:"jobsPerSec,omitempty"`
	// JobBurst is the job bucket's capacity — how many submissions the
	// tenant may burst before the refill rate governs; 0 with a nonzero
	// JobsPerSec means 1.
	JobBurst float64 `json:"jobBurst,omitempty"`
	// PhotonsPerSec refills the tenant's photon quota bucket; 0 disables
	// photon quotas for the tenant.
	PhotonsPerSec float64 `json:"photonsPerSec,omitempty"`
	// PhotonBurst is the photon bucket's capacity — the largest photon
	// cost the tenant can spend at once. A single submission costing more
	// than PhotonBurst is never admissible for this tenant. 0 with a
	// nonzero PhotonsPerSec means 10s of refill (10 * PhotonsPerSec).
	PhotonBurst float64 `json:"photonBurst,omitempty"`
	// Weight is the tenant's share of fleet throughput under the
	// tenant-fair scheduling policy; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
}

// normalize fills the documented zero-value defaults that depend on other
// fields (burst capacities).
func (c TenantClass) normalize() TenantClass {
	if c.JobsPerSec > 0 && c.JobBurst <= 0 {
		c.JobBurst = 1
	}
	if c.PhotonsPerSec > 0 && c.PhotonBurst <= 0 {
		c.PhotonBurst = 10 * c.PhotonsPerSec
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

// TenantTable maps tenant names to classes; tenants not listed get the
// Default class. This is the mcqueue -tenants <file.json> payload.
type TenantTable struct {
	Default TenantClass            `json:"default"`
	Tenants map[string]TenantClass `json:"tenants"`
}

// Class returns the (normalized) class for a tenant name; nil-safe.
func (t *TenantTable) Class(name string) TenantClass {
	if t == nil {
		return TenantClass{}.normalize()
	}
	if c, ok := t.Tenants[name]; ok {
		return c.normalize()
	}
	return t.Default.normalize()
}

// Weight returns the tenant's scheduling weight (1 for unknown tenants and
// nil tables) — the outer weight of the two-level fair-share hierarchy.
func (t *TenantTable) Weight(name string) float64 { return t.Class(name).Weight }

// LoadTenantTable reads a -tenants JSON file. Unknown fields are rejected
// so a typoed "jobsPersec" fails loudly at startup instead of silently
// leaving a tenant unlimited.
func LoadTenantTable(path string) (*TenantTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("service: tenant table: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var t TenantTable
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("service: tenant table %s: %w", path, err)
	}
	for name := range t.Tenants {
		if name == "" || len(name) > MaxTenantNameLen {
			return nil, fmt.Errorf("service: tenant table %s: invalid tenant name %q", path, name)
		}
	}
	return &t, nil
}

// AdmissionVerdict is one admission decision. When OK is false, Reason and
// RetryAfter say why and when retrying could succeed.
type AdmissionVerdict struct {
	OK         bool
	Reason     string
	RetryAfter time.Duration
	Detail     string
}

// TenantLevel is one tenant's live bucket state (GET /tenants).
type TenantLevel struct {
	Tenant       string      `json:"tenant"`
	Class        TenantClass `json:"class"`
	JobTokens    float64     `json:"jobTokens"`
	PhotonTokens float64     `json:"photonTokens"`
}

// AdmissionPolicy decides, per tenant, whether a fresh submission is
// accepted. The registry probes before paying Spec.Build and admits
// authoritatively under its lock, so implementations must be cheap and
// goroutine-safe. Cache hits and coalesced submissions are consulted with
// zero photon cost (Admit(tenant, 0) — one job token, no quota spend);
// journal replay is never consulted.
type AdmissionPolicy interface {
	Name() string
	// Probe reports whether a submission costing photons would be admitted
	// right now, without spending any tokens.
	Probe(tenant string, photons int64) AdmissionVerdict
	// Admit spends the submission's tokens if available; a refused Admit
	// spends nothing.
	Admit(tenant string, photons int64) AdmissionVerdict
	// Levels snapshots per-tenant bucket state for introspection; policies
	// that keep no per-tenant state return nil.
	Levels() []TenantLevel
}

// alwaysAdmit is the open-door policy: every submission is admitted.
type alwaysAdmit struct{}

// AlwaysAdmit returns the default admission policy: no per-tenant limits
// (the registry's MaxActiveJobs cap, if set, still applies).
func AlwaysAdmit() AdmissionPolicy { return alwaysAdmit{} }

func (alwaysAdmit) Name() string                         { return "always-admit" }
func (alwaysAdmit) Probe(string, int64) AdmissionVerdict { return AdmissionVerdict{OK: true} }
func (alwaysAdmit) Admit(string, int64) AdmissionVerdict { return AdmissionVerdict{OK: true} }
func (alwaysAdmit) Levels() []TenantLevel                { return nil }

// bucket is one token bucket: level tokens now, refilled at rate/sec up to
// burst. rate <= 0 disables the dimension (always full).
type bucket struct {
	rate, burst float64
	level       float64
	last        time.Time
}

// refill advances the bucket to now.
func (b *bucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.level += dt * b.rate
		if b.level > b.burst {
			b.level = b.burst
		}
	}
	b.last = now
}

// wait returns how long until the bucket holds n tokens at its refill rate.
func (b *bucket) wait(n float64) time.Duration {
	deficit := n - b.level
	if deficit <= 0 || b.rate <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// TokenBucket is the per-tenant token-bucket admission policy: one bucket
// on submissions per second and one on photons, per tenant, refilled on an
// injected clock so tests are deterministic. A submission needs one job
// token and its photon cost in photon tokens; refusal spends nothing.
type TokenBucket struct {
	table *TenantTable
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tenantBuckets
}

type tenantBuckets struct {
	class   TenantClass
	jobs    bucket
	photons bucket
}

// NewTokenBucket builds the policy from a tenant table. now is the refill
// clock; nil means time.Now.
func NewTokenBucket(table *TenantTable, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	return &TokenBucket{table: table, now: now, buckets: make(map[string]*tenantBuckets)}
}

func (tb *TokenBucket) Name() string { return "token-bucket" }

func (tb *TokenBucket) Probe(tenant string, photons int64) AdmissionVerdict {
	return tb.eval(tenant, photons, false)
}

func (tb *TokenBucket) Admit(tenant string, photons int64) AdmissionVerdict {
	return tb.eval(tenant, photons, true)
}

func (tb *TokenBucket) eval(tenant string, photons int64, debit bool) AdmissionVerdict {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.bucketsLocked(tenant)
	now := tb.now()
	b.jobs.refill(now)
	b.photons.refill(now)
	// Check both dimensions before debiting either, so a quota refusal
	// does not leak the job token it never used.
	if b.jobs.rate > 0 && b.jobs.level < 1 {
		return AdmissionVerdict{
			Reason:     ShedReasonTenantRate,
			RetryAfter: ceilSecond(b.jobs.wait(1)),
			Detail: fmt.Sprintf("job rate %.3g/s exceeded (burst %.3g)",
				b.jobs.rate, b.jobs.burst),
		}
	}
	cost := float64(photons)
	if b.photons.rate > 0 && b.photons.level < cost {
		v := AdmissionVerdict{
			Reason:     ShedReasonTenantQuota,
			RetryAfter: ceilSecond(b.photons.wait(cost)),
			Detail: fmt.Sprintf("photon quota exceeded (cost %d, %.0f available, refill %.3g/s)",
				photons, b.photons.level, b.photons.rate),
		}
		if cost > b.photons.burst {
			v.Detail = fmt.Sprintf("photon cost %d exceeds tenant burst capacity %.0f",
				photons, b.photons.burst)
		}
		return v
	}
	if debit {
		if b.jobs.rate > 0 {
			b.jobs.level--
		}
		if b.photons.rate > 0 {
			b.photons.level -= cost
		}
	}
	return AdmissionVerdict{OK: true}
}

// Levels snapshots every tenant bucket ever touched, refilled to now,
// sorted by tenant name.
func (tb *TokenBucket) Levels() []TenantLevel {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	out := make([]TenantLevel, 0, len(tb.buckets))
	for name, b := range tb.buckets {
		b.jobs.refill(now)
		b.photons.refill(now)
		jobs, photons := b.jobs.level, b.photons.level
		if b.jobs.rate <= 0 {
			jobs = b.jobs.burst // unlimited dimension reads as full
		}
		if b.photons.rate <= 0 {
			photons = b.photons.burst
		}
		out = append(out, TenantLevel{
			Tenant: name, Class: b.class, JobTokens: jobs, PhotonTokens: photons,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// bucketsLocked lazily materialises a tenant's buckets, born full.
func (tb *TokenBucket) bucketsLocked(tenant string) *tenantBuckets {
	b, ok := tb.buckets[tenant]
	if !ok {
		c := tb.table.Class(tenant)
		b = &tenantBuckets{
			class:   c,
			jobs:    bucket{rate: c.JobsPerSec, burst: c.JobBurst, level: c.JobBurst, last: tb.now()},
			photons: bucket{rate: c.PhotonsPerSec, burst: c.PhotonBurst, level: c.PhotonBurst, last: tb.now()},
		}
		tb.buckets[tenant] = b
	}
	return b
}

// ceilSecond rounds a wait up to whole seconds with a 1s floor — the
// granularity of the HTTP Retry-After header.
func ceilSecond(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Second
	}
	if rem := d % time.Second; rem != 0 {
		d += time.Second - rem
	}
	return d
}

// admissionPhotons is the photon cost a submission debits from its
// tenant's quota: the fixed budget, or a targeted job's guaranteed minimum
// (its true cost is decided later by the stopping rule). Call after
// normalize so MinPhotons is filled.
func (s *JobSpec) admissionPhotons() int64 {
	if s.Target != nil {
		return s.Target.MinPhotons
	}
	return s.TotalPhotons
}
