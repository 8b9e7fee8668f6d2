// Package gateway is the stateless routing tier in front of N journaled
// registry shards. Each shard is an ordinary mcqueue daemon owning a
// contiguous range of the key space (service.ShardOfKey); the gateway
// computes every submission's keys itself — the same normalize-and-hash
// the shards run — so routing is a pure function of the request bytes and
// the shard count. It holds no routing table, no jobs, no results and no
// durable state: a restarted gateway routes identically, and any number
// of gateways can front the same shards.
//
// Requests flow three ways:
//
//   - POST /jobs is keyed, admission-checked when the gateway owns the
//     tenant buckets, and forwarded to the shard owning its routing key
//     (service.RouteKey: the physics key of a moments-tracking spec, whose
//     looser targets and repeats that shard's retained jobs answer; the
//     content key otherwise) in the compact submission encoding
//     (service.SubmissionCompactType), not as the client's JSON again.
//   - GET/DELETE /jobs/{id}... is routed by the ID alone: job IDs are
//     the routing key's top 32 bits over the content key's next 32
//     (service.JobID), so service.ShardOfID names the owner from those
//     top bits with no lookup. Responses pass through as the shard wrote
//     them, except a finished result: the gateway asks the shard for it in
//     the compact codec (service.ResultCompactType), decodes it once and
//     JSON-encodes the body for the client. JSON is the encoding of the
//     client edge only, in both directions.
//   - GET /stats, /fleet, /tenants and GET /jobs fan out to every shard
//     and merge.
//
// Each shard may list several replicas (a primary and its lease-file
// standbys sharing one journal directory). The gateway tries them in
// order and fails over on connection errors and 503s — never on 4xx: a
// 422 is the client's own malformed job and deterministic, a 429 is the
// shard's admission verdict, and retrying either elsewhere would be
// wrong twice over. Re-sending a submission after a mid-flight error is
// safe because submissions are content-addressed: the shard that already
// accepted it answers the retry with the same job, live or finished.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Options configure a Gateway.
type Options struct {
	// Shards lists, per shard, the replica base URLs ("http://host:port")
	// in preference order: the primary first, then any standbys waiting on
	// its lease file. The slice's length fixes the key-space partition —
	// changing it remaps keys, so grow a fleet by draining, not in place.
	Shards [][]string
	// Admission, when set, runs the tenant token buckets at the gateway —
	// the natural place once submissions fan out over shards that cannot
	// see each other's arrival rates. Shards behind an admitting gateway
	// should run AlwaysAdmit, or tenants pay twice. The gateway cannot see
	// a shard's retained jobs, so every submission it forwards pays its full
	// cost (service.JobSpec.AdmissionPhotons), a resubmission the shard
	// answers from them included. nil forwards everything and leaves
	// admission to the shards.
	Admission service.AdmissionPolicy
	// MaxTargetPhotons must match the shards' own -target-max-photons: it
	// participates in spec normalization and therefore in the keys.
	// 0 means the service default.
	MaxTargetPhotons int64
	// MaxBodyBytes caps the POST /jobs body exactly like service.API;
	// 0 means service.DefaultMaxBodyBytes, negative disables the cap.
	MaxBodyBytes int64
	// Client issues the proxied requests; nil gets a 30s-timeout default.
	Client *http.Client
	// Obs receives gateway_* metrics; nil instruments privately.
	Obs *obs.Registry
	// Logger receives structured routing logs; nil discards.
	Logger *slog.Logger
}

// Gateway routes the service HTTP API across registry shards.
type Gateway struct {
	shards    [][]string
	admission service.AdmissionPolicy
	maxTarget int64
	maxBody   int64
	client    *http.Client
	log       *slog.Logger

	met gatewayMetrics
}

type gatewayMetrics struct {
	submissions *obs.CounterVec
	sheds       *obs.Counter
	invalid     *obs.Counter
	proxies     *obs.CounterVec
	failovers   *obs.CounterVec
	unavailable *obs.CounterVec
	// One finished result served from a shard: fetch + decode + encode +
	// write, and the JSON bytes the client was sent.
	resultSeconds *obs.Histogram
	resultBytes   *obs.Histogram
	// The submit path's stages (see gateway_submit_stage_seconds).
	submitDecode, submitKeys, submitEncode, submitForward *obs.Histogram
}

// New builds a Gateway over the given shard replica sets.
func New(opts Options) (*Gateway, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("gateway: no shards configured")
	}
	for i, reps := range opts.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("gateway: shard %d has no replicas", i)
		}
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	oreg := opts.Obs
	if oreg == nil {
		oreg = obs.NewRegistry()
	}
	g := &Gateway{
		shards:    opts.Shards,
		admission: opts.Admission,
		maxTarget: opts.MaxTargetPhotons,
		maxBody:   opts.MaxBodyBytes,
		client:    client,
		log:       log,
	}
	g.met = gatewayMetrics{
		submissions: oreg.CounterVec("gateway_submissions_total",
			"Submissions forwarded to a shard, by shard index.", "shard"),
		sheds: oreg.Counter("gateway_sheds_total",
			"Submissions refused by gateway-side admission."),
		invalid: oreg.Counter("gateway_invalid_total",
			"Submissions rejected at the gateway as malformed (4xx, never routed)."),
		proxies: oreg.CounterVec("gateway_proxies_total",
			"Non-submit requests proxied to a shard, by shard index.", "shard"),
		failovers: oreg.CounterVec("gateway_replica_failovers_total",
			"Replica attempts skipped past after a connection error or 503.", "shard"),
		unavailable: oreg.CounterVec("gateway_shard_unavailable_total",
			"Requests failed because every replica of a shard was down.", "shard"),
		resultSeconds: oreg.Histogram("gateway_result_seconds",
			"Serving one finished result from a shard: compact fetch, decode, JSON encode and write.", obs.DefBuckets),
		resultBytes: oreg.Histogram("gateway_result_bytes",
			"JSON size of one finished result body sent to the client.", obs.ByteBuckets),
	}
	stage := oreg.HistogramVec("gateway_submit_stage_seconds",
		"Time one submission spent in a stage of the gateway's submit path: decode (body read and JSON decode), keys (content and physics key derivation), encode (the compact form forwarded to the shard), forward (the owning shard's answer, failovers included).",
		obs.DefBuckets, "stage")
	g.met.submitDecode, g.met.submitKeys = stage.With("decode"), stage.With("keys")
	g.met.submitEncode, g.met.submitForward = stage.With("encode"), stage.With("forward")
	oreg.GaugeFunc("gateway_shards",
		"Configured shard count (the key-space partition width).",
		func() float64 { return float64(len(g.shards)) })
	return g, nil
}

// Shards returns the configured shard count.
func (g *Gateway) Shards() int { return len(g.shards) }

// Handler returns the gateway's route multiplexer — the same surface as
// service.API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.Register(mux)
	return mux
}

// Register mounts the gateway's routes on an existing mux.
func (g *Gateway) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", g.submit)
	mux.HandleFunc("GET /jobs", g.list)
	mux.HandleFunc("GET /jobs/{id}", g.proxyJob)
	mux.HandleFunc("GET /jobs/{id}/result", g.proxyResult)
	mux.HandleFunc("GET /jobs/{id}/events", g.proxyJob)
	mux.HandleFunc("GET /jobs/{id}/spans", g.proxyJob)
	mux.HandleFunc("DELETE /jobs/{id}", g.proxyJob)
	mux.HandleFunc("GET /stats", g.stats)
	mux.HandleFunc("GET /fleet", g.fleet)
	mux.HandleFunc("GET /tenants", g.tenants)
}

func (g *Gateway) submit(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	spec, ok := service.ReadSubmission(w, req, g.maxBody, nil)
	if !ok {
		g.met.invalid.Inc()
		return
	}
	g.met.submitDecode.Observe(time.Since(start).Seconds())

	// A malformed job is a 422 whatever its tenant's buckets hold, so the
	// cheap half of key derivation runs first; it also resolves an unnamed
	// tenant to the default, the name a shard would admit it under. Then
	// shed before hashing: the admission below debits at least one job
	// token, so a tenant whose job-rate bucket cannot pay one is refused
	// either way — the probe spends nothing and says so before the gateway
	// hashes a body that may run to megabytes.
	err := spec.Normalize(g.maxTarget)
	if err == nil && g.admission != nil && !g.admitted(w, spec.Tenant, g.admission.Probe(spec.Tenant, 0)) {
		return
	}
	// The same normalize-and-hash the owning shard will run: the key is a
	// pure function of the request, so gateway and shard always agree.
	start = time.Now()
	var key, pkey service.Key
	if err == nil {
		key, pkey, err = service.RoutingKeys(&spec, g.maxTarget)
	}
	if err != nil {
		// Deterministically malformed: the client's fault, no shard would
		// accept it either — do not route, do not retry.
		g.met.invalid.Inc()
		service.WriteJSON(w, http.StatusUnprocessableEntity, service.APIError{Error: err.Error()})
		return
	}
	g.met.submitKeys.Observe(time.Since(start).Seconds())

	// Debit before spending a shard's time. Fail-closed — a routed
	// submission that then fails everywhere has spent its tokens, like any
	// accepted-then-crashed job.
	if g.admission != nil && !g.admitted(w, spec.Tenant, g.admission.Admit(spec.Tenant, spec.AdmissionPhotons())) {
		return
	}

	// Between the tiers every submission travels in the compact form: the
	// normalized spec, resolved tenant included, encoded once for all replica
	// attempts. The shard still normalizes and derives the keys itself.
	start = time.Now()
	body, err := service.AppendSubmission(nil, &spec)
	if err != nil {
		service.WriteJSON(w, http.StatusInternalServerError, service.APIError{Error: err.Error()})
		return
	}
	g.met.submitEncode.Observe(time.Since(start).Seconds())

	shard := service.ShardOfKey(service.RouteKey(&spec, key, pkey), len(g.shards))
	start = time.Now()
	status, hdr, respBody, err := g.doShard(shard, func(base string) (*http.Request, error) {
		preq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
			base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		preq.Header.Set("Content-Type", service.SubmissionCompactType)
		return preq, nil
	})
	if err != nil {
		service.WriteJSON(w, http.StatusBadGateway,
			service.APIError{Error: fmt.Sprintf("shard %d unavailable: %v", shard, err)})
		return
	}
	g.met.submitForward.Observe(time.Since(start).Seconds())
	g.met.submissions.With(strconv.Itoa(shard)).Inc()
	copyResponse(w, status, hdr, respBody)
}

// admitted reports an admission verdict; a refusal has been counted and
// answered with its 429.
func (g *Gateway) admitted(w http.ResponseWriter, tenant string, v service.AdmissionVerdict) bool {
	if !v.OK {
		g.met.sheds.Inc()
		service.WriteShed(w, &service.ShedError{
			Tenant: tenant, Reason: v.Reason, RetryAfter: v.RetryAfter, Detail: v.Detail,
		})
	}
	return v.OK
}

// forward sends a single-job request to the shard owning its ID, naming
// accept (if not empty) as the encoding it wants back. ok is false when the
// request has been answered here instead: a malformed ID or a shard with
// every replica down.
func (g *Gateway) forward(w http.ResponseWriter, req *http.Request, accept string) (shard, status int, hdr http.Header, body []byte, ok bool) {
	id, err := strconv.ParseUint(req.PathValue("id"), 16, 64)
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.APIError{Error: fmt.Sprintf("bad job id: %v", err)})
		return
	}
	shard = service.ShardOfID(id, len(g.shards))
	url := req.URL.Path
	if q := req.URL.RawQuery; q != "" {
		url += "?" + q
	}
	status, hdr, body, err = g.doShard(shard, func(base string) (*http.Request, error) {
		preq, err := http.NewRequestWithContext(req.Context(), req.Method, base+url, nil)
		if err == nil && accept != "" {
			preq.Header.Set("Accept", accept)
		}
		return preq, err
	})
	if err != nil {
		service.WriteJSON(w, http.StatusBadGateway,
			service.APIError{Error: fmt.Sprintf("shard %d unavailable: %v", shard, err)})
		return
	}
	g.met.proxies.With(strconv.Itoa(shard)).Inc()
	return shard, status, hdr, body, true
}

// proxyJob passes the owning shard's answer through as the shard wrote it.
func (g *Gateway) proxyJob(w http.ResponseWriter, req *http.Request) {
	if _, status, hdr, body, ok := g.forward(w, req, ""); ok {
		copyResponse(w, status, hdr, body)
	}
}

// proxyResult serves GET /jobs/{id}/result. It asks the owning shard for
// the result in the compact codec; a finished result (200) is decoded and
// JSON-encoded for the client by the encoder the shard itself answers a
// client with, so the bytes are the same. Every other answer (202 not
// finished, 404, 410 canceled, a 5xx) is the shard's own JSON and passes
// through.
func (g *Gateway) proxyResult(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	shard, status, hdr, body, ok := g.forward(w, req, service.ResultCompactType)
	if !ok {
		return
	}
	if status != http.StatusOK {
		copyResponse(w, status, hdr, body)
		return
	}
	res, err := service.DecodeResult(body)
	if err != nil {
		// The tree ships together: a shard that answers the negotiated
		// request with anything but the compact result (a JSON body fails
		// at the version byte) is broken, not old.
		service.WriteJSON(w, http.StatusBadGateway,
			service.APIError{Error: fmt.Sprintf("shard %d: %v", shard, err)})
		return
	}
	if body, err = service.EncodeJSON(res); err != nil {
		service.WriteJSON(w, http.StatusInternalServerError,
			service.APIError{Error: fmt.Sprintf("encoding the result: %v", err)})
		return
	}
	service.WriteBody(w, http.StatusOK, "application/json", body)
	g.met.resultSeconds.Observe(time.Since(start).Seconds())
	g.met.resultBytes.Observe(float64(len(body)))
}

// doShard runs one request against a shard, walking its replicas in
// preference order. Connection errors and 503s fail over to the next
// replica; anything else — including every 4xx — is the shard's answer
// and is returned as-is. When every replica fails, the last 503 (if any)
// is passed through so the client sees the shard's own words.
func (g *Gateway) doShard(shard int, build func(base string) (*http.Request, error)) (int, http.Header, []byte, error) {
	label := strconv.Itoa(shard)
	var lastStatus int
	var lastHdr http.Header
	var lastBody []byte
	var lastErr error
	for i, base := range g.shards[shard] {
		if i > 0 {
			g.met.failovers.With(label).Inc()
		}
		preq, err := build(strings.TrimSuffix(base, "/"))
		if err != nil {
			return 0, nil, nil, err
		}
		resp, err := g.client.Do(preq)
		if err != nil {
			lastErr = err
			g.log.Warn("shard replica unreachable", "shard", shard, "replica", base, "err", err)
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			lastStatus, lastHdr, lastBody, lastErr = resp.StatusCode, resp.Header, respBody, nil
			g.log.Warn("shard replica 503", "shard", shard, "replica", base)
			continue
		}
		return resp.StatusCode, resp.Header, respBody, nil
	}
	if lastStatus != 0 {
		return lastStatus, lastHdr, lastBody, nil
	}
	g.met.unavailable.With(label).Inc()
	return 0, nil, nil, lastErr
}

func copyResponse(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// eachShard fans a GET out to every shard (any live replica each) and
// hands the decoded bodies to merge, reporting how many answered. When
// none did it answers the client's request itself, with 502. The fan-out
// runs under the caller's context: once the caller has hung up, the shard
// being asked is let go and the rest are not asked.
func eachShard[T any](g *Gateway, w http.ResponseWriter, req *http.Request, path string, merge func(shard int, v T)) int {
	ctx := req.Context()
	up := 0
	for shard := range g.shards {
		if ctx.Err() != nil {
			break
		}
		status, _, body, err := g.doShard(shard, func(base string) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		})
		if err != nil || status != http.StatusOK {
			continue
		}
		var v T
		if json.Unmarshal(body, &v) != nil {
			continue
		}
		merge(shard, v)
		up++
	}
	if up == 0 {
		service.WriteJSON(w, http.StatusBadGateway, service.APIError{Error: "no shard reachable"})
	}
	return up
}

// list concatenates every shard's retained jobs, in shard order.
func (g *Gateway) list(w http.ResponseWriter, req *http.Request) {
	all := []service.JobStatus{}
	if eachShard(g, w, req, "/jobs", func(_ int, v []service.JobStatus) { all = append(all, v...) }) > 0 {
		service.WriteJSON(w, http.StatusOK, all)
	}
}

// statsBody is the gateway's /stats: the familiar per-registry snapshot
// summed across shards, plus how many shards answered.
type statsBody struct {
	service.Stats
	Shards   int `json:"shards"`
	ShardsUp int `json:"shardsUp"`
}

func (g *Gateway) stats(w http.ResponseWriter, req *http.Request) {
	var agg service.Stats
	up := eachShard(g, w, req, "/stats", func(_ int, s service.Stats) { agg.Add(s) })
	if up == 0 {
		return
	}
	if g.admission != nil {
		agg.Admission = g.admission.Name()
	}
	service.WriteJSON(w, http.StatusOK, statsBody{Stats: agg, Shards: len(g.shards), ShardsUp: up})
}

func (g *Gateway) fleet(w http.ResponseWriter, req *http.Request) {
	var agg service.FleetBody
	byName := map[string]*service.TenantStatus{}
	if eachShard(g, w, req, "/fleet", func(_ int, v service.FleetBody) {
		agg.Workers = append(agg.Workers, v.Workers...)
		mergeTenants(byName, v.Tenants)
	}) > 0 {
		agg.Tenants = g.overlayLevels(byName)
		service.WriteJSON(w, http.StatusOK, agg)
	}
}

func (g *Gateway) tenants(w http.ResponseWriter, req *http.Request) {
	byName := map[string]*service.TenantStatus{}
	admission := ""
	up := eachShard(g, w, req, "/tenants", func(_ int, v service.TenantsBody) {
		if admission == "" {
			admission = v.Admission
		}
		mergeTenants(byName, v.Tenants)
	})
	if up == 0 {
		return
	}
	if g.admission != nil {
		admission = g.admission.Name()
	}
	service.WriteJSON(w, http.StatusOK, service.TenantsBody{
		Admission: admission, Tenants: g.overlayLevels(byName),
	})
}

// mergeTenants sums one shard's tenant rollup into the cross-shard view.
// Per-shard bucket levels are dropped: independent buckets on different
// shards do not sum to anything meaningful.
func mergeTenants(byName map[string]*service.TenantStatus, in []service.TenantStatus) {
	for _, t := range in {
		a, ok := byName[t.Name]
		if !ok {
			a = &service.TenantStatus{Name: t.Name}
			byName[t.Name] = a
		}
		a.Add(t.TenantStat)
	}
}

// overlayLevels sorts the merged rollup and, when the gateway owns the
// buckets, stamps each tenant with the one authoritative bucket state.
func (g *Gateway) overlayLevels(byName map[string]*service.TenantStatus) []service.TenantStatus {
	if g.admission != nil {
		for _, lv := range g.admission.Levels() {
			t, ok := byName[lv.Tenant]
			if !ok {
				t = &service.TenantStatus{Name: lv.Tenant}
				byName[lv.Tenant] = t
			}
			cls, jt, pt := lv.Class, lv.JobTokens, lv.PhotonTokens
			t.Class, t.JobTokens, t.PhotonTokens = &cls, &jt, &pt
		}
	}
	out := make([]service.TenantStatus, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Probe checks one replica-set per shard and flips the matching
// readiness condition ("shard0", "shard1", ...). Wire the conditions up
// with ShardConds and call Probe on a ticker.
func (g *Gateway) Probe(ready *obs.Readiness) {
	for shard := range g.shards {
		status, _, _, err := g.doShard(shard, func(base string) (*http.Request, error) {
			return http.NewRequest(http.MethodGet, base+"/stats", nil)
		})
		ready.Set(fmt.Sprintf("shard%d", shard), err == nil && status == http.StatusOK)
	}
}

// ShardConds names the readiness conditions Probe maintains.
func (g *Gateway) ShardConds() []string {
	conds := make([]string, len(g.shards))
	for i := range conds {
		conds[i] = fmt.Sprintf("shard%d", i)
	}
	return conds
}
