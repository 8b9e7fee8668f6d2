package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
)

// API serves the registry over HTTP/JSON:
//
//	POST   /jobs            submit a job (returns id; cached/coalesced dedup;
//	                        tenant from X-MC-Tenant header or body; 429 +
//	                        computed Retry-After when admission sheds it)
//	GET    /jobs            list retained jobs
//	GET    /jobs/{id}       job status with progress
//	GET    /jobs/{id}/result reduced tally once done (202 while running)
//	GET    /jobs/{id}/events bounded lifecycle event trace (?kind=, ?since=)
//	GET    /jobs/{id}/spans  per-chunk timing spans its chunk-completed events carry
//	DELETE /jobs/{id}       cancel a queued/running job
//	GET    /stats           fleet and queue health (with per-tenant rollup)
//	GET    /fleet           live worker sessions with telemetry profiles
//	GET    /tenants         per-tenant accounting and live bucket levels
type API struct {
	reg *Registry
	// MaxBodyBytes caps the POST /jobs request body; an oversized body is
	// a 413. 0 means DefaultMaxBodyBytes, negative disables the cap.
	MaxBodyBytes int64
}

// DefaultMaxBodyBytes is the POST /jobs body cap when API.MaxBodyBytes is
// zero: far above any sane spec (a voxel grid ships dense, one label per
// voxel — the benchmark's 120×120×80 head is a 1.5 MB body), far below
// what could OOM the daemon.
const DefaultMaxBodyBytes = 32 << 20

// TenantHeader is the request header naming the submitting tenant; it wins
// over JobRequest.Tenant, and both empty means DefaultTenant.
const TenantHeader = "X-MC-Tenant"

// NewAPI wraps a registry in the HTTP layer.
func NewAPI(reg *Registry) *API { return &API{reg: reg} }

// JobRequest is the POST /jobs body. Spec is the full serialisable
// simulation description (layered model or voxel grid, source, detector).
// Exactly one of Photons (fixed budget) or Target (run until the named
// observable reaches the requested relative standard error) sizes the job.
type JobRequest struct {
	Spec         *mc.Spec `json:"spec"`
	Photons      int64    `json:"photons,omitempty"`
	ChunkPhotons int64    `json:"chunkPhotons,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	// Fan is the per-chunk multi-core decomposition width (see
	// JobSpec.Fan); ≤ 1 keeps the legacy single-stream chunks.
	Fan int `json:"fan,omitempty"`
	// Target makes the job precision-targeted (see JobSpec.Target), e.g.
	// {"observable":"diffuse","relErr":0.01}. GET /jobs/{id} then reports
	// the live estimate ± CI and the photons spent.
	Target       *mc.Target    `json:"target,omitempty"`
	ChunkTimeout time.Duration `json:"chunkTimeoutNs,omitempty"`
	Priority     int           `json:"priority,omitempty"`
	Weight       float64       `json:"weight,omitempty"`
	Label        string        `json:"label,omitempty"`
	// Tenant attributes the job for admission control and fair scheduling;
	// the X-MC-Tenant request header overrides it, and both empty maps to
	// the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
}

// JobAccepted is the POST /jobs response.
type JobAccepted struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
}

// JobResultBody is the GET /jobs/{id}/result response.
type JobResultBody struct {
	ID string `json:"id"`
	// Key and PhysicsKey are the job's content key and physics key (see
	// deriveKeys; hex in JSON): the two indexes its shard answers repeats
	// and looser targets from, and what the job ID was derived from (JobID).
	Key        Key        `json:"key"`
	PhysicsKey Key        `json:"physicsKey"`
	Target     *mc.Target `json:"target,omitempty"`
	// TargetMet reports a precision-targeted job stopped because its
	// RSE goal was reached (false: the photon cap ended it first).
	TargetMet bool      `json:"targetMet,omitempty"`
	Elapsed   float64   `json:"elapsedSeconds"`
	Tally     *mc.Tally `json:"tally"`
}

// APIError is the body of every non-2xx answer.
type APIError struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

// Handler returns the API's route multiplexer.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	a.Register(mux)
	return mux
}

// Register mounts the API's routes on an existing mux, so a daemon can
// multiplex the job API with its debug surface on one listener.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", a.submit)
	mux.HandleFunc("GET /jobs", a.list)
	mux.HandleFunc("GET /jobs/{id}", a.status)
	mux.HandleFunc("GET /jobs/{id}/result", a.result)
	mux.HandleFunc("GET /jobs/{id}/events", a.events)
	mux.HandleFunc("GET /jobs/{id}/spans", a.spans)
	mux.HandleFunc("DELETE /jobs/{id}", a.cancel)
	mux.HandleFunc("GET /stats", a.stats)
	mux.HandleFunc("GET /fleet", a.fleet)
	mux.HandleFunc("GET /tenants", a.tenants)
}

// EncodeJSON renders a response body — the one JSON renderer of the job
// API and of the gateway tier in front of it. A value JSON cannot render (a
// NaN, an infinity) is an error, never an empty body.
func EncodeJSON(body any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(body)
	return buf.Bytes(), err
}

// WriteJSON answers with a JSON body, or with a 500 naming why it could
// not be encoded.
func WriteJSON(w http.ResponseWriter, code int, body any) {
	data, err := EncodeJSON(body)
	if err != nil {
		code = http.StatusInternalServerError
		data, _ = EncodeJSON(APIError{Error: fmt.Sprintf("encoding the response: %v", err)}) // strings always encode
	}
	writeBody(w, code, data)
}

// writeBody answers with an already encoded JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// WriteShed answers a refused submission: 429 with the moment a retry
// could succeed — the token bucket's refill time, or a queue-depth-scaled
// wait for the active-job cap — rounded up to whole seconds.
func WriteShed(w http.ResponseWriter, shed *ShedError) {
	secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, http.StatusTooManyRequests, APIError{Error: shed.Error()})
}

func (a *API) jobFromPath(w http.ResponseWriter, req *http.Request) *Job {
	id, err := strconv.ParseUint(req.PathValue("id"), 16, 64)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, APIError{Error: fmt.Sprintf("bad job id: %v", err)})
		return nil
	}
	j := a.reg.Get(id)
	if j == nil {
		WriteJSON(w, http.StatusNotFound, APIError{Error: fmt.Sprintf("no job %016x", id)})
		return nil
	}
	return j
}

// ReadSubmission is the POST /jobs ingress, the same for a shard and for
// a gateway in front of it: cap the body (0 means DefaultMaxBodyBytes,
// negative disables the cap), decode it by Content-Type — the compact
// submission a routing tier forwards, or a client's JSON JobRequest,
// strictly and straight from the stream — and resolve the tenant (header
// over body field). Whichever decoder ran, the caller runs the same Submit
// on the JobSpec. sizes, if not nil, observes the body's declared length
// under its format ("json" or "compact"). On any failure the 4xx has been
// written and ok is false.
func ReadSubmission(w http.ResponseWriter, req *http.Request, maxBody int64, sizes *obs.HistogramVec) (spec JobSpec, ok bool) {
	fail := func(code int, format string, args ...any) (JobSpec, bool) {
		WriteJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
		return JobSpec{}, false
	}
	// Bound the body before touching it: a multi-GB "spec" must die at the
	// reader, not after it has been buffered into memory.
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	r := req.Body
	if maxBody > 0 {
		r = http.MaxBytesReader(w, req.Body, maxBody)
	}
	format := "json"
	var err error
	switch req.Header.Get("Content-Type") {
	case SubmissionCompactType:
		format = "compact"
		// One buffer sized from Content-Length, up to DefaultMaxBodyBytes: a
		// claim is no bytes, and with the cap off it is all that bounds it.
		// A longer body, or one that declared none, grows it inside the cap
		// on r; MinRead of slack lets ReadFrom see EOF without growing. The
		// decoded grid's labels alias it: it is the job's copy of the grid.
		if maxBody > 0 && req.ContentLength > maxBody {
			err = &http.MaxBytesError{Limit: maxBody}
		} else {
			size := min(max(req.ContentLength, 0), DefaultMaxBodyBytes)
			buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
			if _, err = buf.ReadFrom(r); err == nil {
				spec, err = DecodeSubmission(buf.Bytes())
			}
		}
	default:
		dec := json.NewDecoder(r)
		// A typoed field ("prioirty", "photon") must fail loudly, not submit a
		// silently-defaulted job.
		dec.DisallowUnknownFields()
		var body JobRequest
		err = dec.Decode(&body)
		spec = JobSpec{
			Spec:         body.Spec,
			TotalPhotons: body.Photons,
			ChunkPhotons: body.ChunkPhotons,
			Seed:         body.Seed,
			Fan:          body.Fan,
			Target:       body.Target,
			ChunkTimeout: body.ChunkTimeout,
			Priority:     body.Priority,
			Weight:       body.Weight,
			Label:        body.Label,
			Tenant:       body.Tenant,
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fail(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return fail(http.StatusBadRequest, "bad request body: %v", err)
	}
	if sizes != nil && req.ContentLength >= 0 {
		sizes.With(format).Observe(float64(req.ContentLength))
	}
	tenant := strings.TrimSpace(req.Header.Get(TenantHeader))
	if tenant == "" {
		tenant = strings.TrimSpace(spec.Tenant)
	}
	if len(tenant) > MaxTenantNameLen {
		return fail(http.StatusBadRequest, "tenant name longer than %d bytes", MaxTenantNameLen)
	}
	spec.Tenant = tenant
	return spec, true
}

func (a *API) submit(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	spec, ok := ReadSubmission(w, req, a.MaxBodyBytes, a.reg.met.submitBytes)
	if !ok {
		return
	}
	a.reg.met.submitDecode.Observe(time.Since(start).Seconds())
	out, err := a.reg.Submit(spec)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			// Load shedding, not a malformed job.
			WriteShed(w, shed)
			return
		}
		if IsInvalid(err) {
			// The submission itself is malformed: the client's fault, and
			// deterministic — a gateway must not retry it on another shard.
			WriteJSON(w, http.StatusUnprocessableEntity, APIError{Error: err.Error()})
			return
		}
		// Everything else (a Spec.Build failure, internal wiring) is the
		// service's own problem: a 503 a routing tier may retry elsewhere.
		WriteJSON(w, http.StatusServiceUnavailable, APIError{Error: err.Error()})
		return
	}
	st := out.Job.Status()
	code := http.StatusCreated
	if out.Cached || out.Coalesced {
		code = http.StatusOK
	}
	WriteJSON(w, code, JobAccepted{
		ID:        st.IDHex,
		State:     st.State,
		Cached:    out.Cached,
		Coalesced: out.Coalesced,
	})
}

func (a *API) list(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, a.reg.List())
}

func (a *API) status(w http.ResponseWriter, req *http.Request) {
	j := a.jobFromPath(w, req)
	if j == nil {
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

// result serves a finished job's result as JSON — to a client, or to a
// gateway that passes the bytes through. The job's Done channel alone
// decides: it closes only once the job's final snapshot is journaled and
// its waiters are released, so until then — the seal window after the
// last reduction included — the answer is 202. Every answer but a result
// is a JSON APIError.
func (a *API) result(w http.ResponseWriter, req *http.Request) {
	j := a.jobFromPath(w, req)
	if j == nil {
		return
	}
	select {
	case <-j.Done():
	default:
		WriteJSON(w, http.StatusAccepted, APIError{Error: "job not finished", State: j.Status().State})
		return
	}
	res, err := j.Wait(0) // closed: returns at once
	if err != nil {
		WriteJSON(w, http.StatusGone, APIError{Error: "job canceled", State: StateCanceled.String()})
		return
	}
	start := time.Now()
	data, err := EncodeJSON(JobResultBody{
		ID:         jobHex(j.id),
		Key:        j.key,
		PhysicsKey: j.pkey,
		Target:     res.Target,
		TargetMet:  res.TargetMet,
		Elapsed:    res.Elapsed.Seconds(),
		Tally:      res.Tally,
	})
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, APIError{Error: fmt.Sprintf("encoding the result: %v", err)})
		return
	}
	a.reg.met.resultSeconds.Observe(time.Since(start).Seconds())
	a.reg.met.resultBytes.Observe(float64(len(data)))
	writeBody(w, http.StatusOK, data)
}

// eventBody is the JSON view of one trace event; chunk is omitted for
// events that are not chunk-scoped, and the segments for events that
// carry no span (every kind but chunk-completed).
type eventBody struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Chunk  *int      `json:"chunk,omitempty"`
	Worker string    `json:"worker,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Value  float64   `json:"value,omitempty"`
	*SpanSegments
}

// eventsBody is the GET /jobs/{id}/events response. Dropped counts older
// events the bounded ring has overwritten.
type eventsBody struct {
	ID      string      `json:"id"`
	Dropped uint64      `json:"dropped,omitempty"`
	Events  []eventBody `json:"events"`
}

func (a *API) events(w http.ResponseWriter, req *http.Request) {
	j := a.jobFromPath(w, req)
	if j == nil {
		return
	}
	// Server-side filters, so a client after one kind (or only what's new
	// since its last poll) doesn't ship the whole ring every time.
	q := req.URL.Query()
	var wantKind obs.EventKind
	if s := q.Get("kind"); s != "" {
		k, ok := obs.ParseEventKind(s)
		if !ok {
			WriteJSON(w, http.StatusBadRequest, APIError{Error: fmt.Sprintf("unknown event kind %q", s)})
			return
		}
		wantKind = k
	}
	var since time.Time
	if s := q.Get("since"); s != "" {
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, APIError{Error: fmt.Sprintf("bad since time: %v", err)})
			return
		}
		since = t
	}
	evs, dropped := j.Events()
	body := eventsBody{
		ID:      fmt.Sprintf("%016x", j.ID()),
		Dropped: dropped,
		Events:  make([]eventBody, 0, len(evs)),
	}
	for _, e := range evs {
		if wantKind != 0 && e.Kind != wantKind {
			continue
		}
		if !since.IsZero() && !e.Time.After(since) {
			continue
		}
		eb := eventBody{
			Time:   e.Time,
			Kind:   e.Kind.String(),
			Worker: e.Worker,
			Detail: e.Detail,
			Value:  e.Value,
		}
		if e.Chunk >= 0 {
			chunk := e.Chunk
			eb.Chunk = &chunk
		}
		if e.Span != nil {
			seg := segmentsOf(*e.Span)
			eb.SpanSegments = &seg
		}
		if math.IsInf(eb.Value, 0) {
			// An estimate's RSE before two chunks reduced: withheld, as
			// the status withholds it, rather than failing the whole body.
			eb.Value = 0
		}
		body.Events = append(body.Events, eb)
	}
	WriteJSON(w, http.StatusOK, body)
}

// SpanSegments is the JSON view of one chunk's span segments; durations
// are seconds.
type SpanSegments struct {
	Granted        time.Time `json:"granted"`
	QueueSeconds   float64   `json:"queueSeconds"`
	WireSeconds    float64   `json:"wireSeconds"`
	ComputeSeconds float64   `json:"computeSeconds"`
	ReduceSeconds  float64   `json:"reduceSeconds"`
}

func segmentsOf(s obs.Span) SpanSegments {
	return SpanSegments{
		Granted:        s.Granted,
		QueueSeconds:   s.Queue.Seconds(),
		WireSeconds:    s.Wire.Seconds(),
		ComputeSeconds: s.Compute.Seconds(),
		ReduceSeconds:  s.Reduce.Seconds(),
	}
}

// spanBody is the JSON view of one per-chunk span.
type spanBody struct {
	Chunk  int    `json:"chunk"`
	Worker string `json:"worker,omitempty"`
	SpanSegments
}

// spansBody is the GET /jobs/{id}/spans response: the spans the job's
// retained chunk-completed events carry. Dropped counts older events of
// any kind the bounded ring has overwritten.
type spansBody struct {
	ID      string     `json:"id"`
	Dropped uint64     `json:"dropped,omitempty"`
	Spans   []spanBody `json:"spans"`
}

func (a *API) spans(w http.ResponseWriter, req *http.Request) {
	j := a.jobFromPath(w, req)
	if j == nil {
		return
	}
	sps, dropped := j.Spans()
	body := spansBody{
		ID:      fmt.Sprintf("%016x", j.ID()),
		Dropped: dropped,
		Spans:   make([]spanBody, 0, len(sps)),
	}
	for _, s := range sps {
		body.Spans = append(body.Spans, spanBody{Chunk: s.Chunk, Worker: s.Worker, SpanSegments: segmentsOf(s)})
	}
	WriteJSON(w, http.StatusOK, body)
}

// FleetBody is the GET /fleet response.
type FleetBody struct {
	Workers []SessionStatus `json:"workers"`
	Tenants []TenantStatus  `json:"tenants,omitempty"`
}

func (a *API) fleet(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, FleetBody{Workers: a.reg.Fleet(), Tenants: a.reg.Tenants()})
}

// TenantsBody is the GET /tenants response.
type TenantsBody struct {
	Admission string         `json:"admission"`
	Tenants   []TenantStatus `json:"tenants"`
}

func (a *API) tenants(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, TenantsBody{
		Admission: a.reg.admission.Name(),
		Tenants:   a.reg.Tenants(),
	})
}

func (a *API) cancel(w http.ResponseWriter, req *http.Request) {
	j := a.jobFromPath(w, req)
	if j == nil {
		return
	}
	if err := a.reg.Cancel(j.ID()); err != nil {
		WriteJSON(w, http.StatusConflict, APIError{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

func (a *API) stats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, a.reg.Stats())
}
