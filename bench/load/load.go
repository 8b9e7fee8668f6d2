// Package load is the load generator: it plays a schedule of requests
// against the gateway over two HTTP connections — one that submits, one
// that polls for results — and records what a client would have seen.
//
// The API has no long-poll, so a client that wants a result asks for it
// again and again: first ten milliseconds after the submission was
// acknowledged, then every ten milliseconds. The poll connection does that
// for every outstanding job, earliest deadline first. Latencies of an open
// loop count from the instant a request was due, not from when it was
// sent, so a stall of the generator or of the submit connection shows as
// latency of the requests it delayed and not as a gap in the record.
package load

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/bench/workload"
	"repro/internal/service"
)

// PollEvery is the client's polling period and the delay of its first poll.
const PollEvery = 10 * time.Millisecond

// Record is everything observed of one request.
type Record struct {
	Op *workload.Op
	// Due is when the request should have been sent, Sent when it was,
	// Acked when the POST /jobs response had been read.
	Due, Sent, Acked time.Time
	// Status is the POST /jobs code; 0 means the request failed in
	// transport and Err says how.
	Status     int
	RetryAfter string
	Accepted   service.JobAccepted
	// Polls counts GET /result requests including the final one.
	Polls int
	// FetchStart and Done bracket the final GET, the one that returned
	// the result (or an unexpected status).
	FetchStart, Done time.Time
	ResultStatus     int
	Body             []byte
	Err              string
	// PollSpans and ServerSpans are kept only when tracing.
	PollSpans   []Interval
	ServerSpans []byte
	client      int // closed loop: the client this request belongs to
}

// Interval is a closed span of wall time.
type Interval struct{ Start, End time.Time }

// HasJob reports whether the submission was answered with a job to poll.
func (r *Record) HasJob() bool {
	return (r.Status == http.StatusOK || r.Status == http.StatusCreated) && r.Accepted.ID != ""
}

// Options configure one pass over a schedule.
type Options struct {
	// Closed runs a closed loop of Outstanding clients: client c owns ops
	// c, c+Outstanding, c+2·Outstanding, … and its next request is due the
	// moment its previous one has its result. Otherwise each op is due at
	// Start+Due.
	Closed      bool
	Outstanding int
	// Timeout bounds how long a job may stay without a result after its
	// acknowledgement.
	Timeout time.Duration
	// Trace keeps per-poll intervals and fetches GET /jobs/{id}/spans for
	// every spanSample-th job. Off, the generator does nothing but submit
	// and poll.
	Trace bool
}

// spanSample: a traced pass asks the shard for the chunk spans of one job
// in this many.
const spanSample = 20

// Outcome is one pass.
type Outcome struct {
	Start, End time.Time
	Records    []Record
	// PollLag holds, for every poll, how long after its deadline it went
	// out: the poll connection's backlog.
	PollLag []time.Duration
}

// Client owns the two connections. Use one Client for everything sent to
// one tree, so that "two connections" holds across warm-up and passes.
type Client struct {
	gateway      string
	submit, poll *http.Client
}

// NewClient returns a client for the gateway at base URL gateway.
func NewClient(gateway string) *Client {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return &Client{gateway: gateway, submit: one(), poll: one()}
}

// Close drops both connections.
func (c *Client) Close() {
	c.submit.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

// Run plays ops and returns when every one has an outcome. It does not
// fail: whatever goes wrong with a request is recorded on it.
func (c *Client) Run(ctx context.Context, ops []workload.Op, opt Options) *Outcome {
	out := &Outcome{Records: make([]Record, len(ops))}
	// Sized to the schedule so that neither loop ever waits for the other:
	// a submit blocked on a busy poll loop would show as schedule lag.
	acked := make(chan *Record, len(ops))
	var free chan freed
	out.Start = time.Now()
	if opt.Closed {
		free = make(chan freed, opt.Outstanding) // one token per client
		for c := 0; c < opt.Outstanding; c++ {
			free <- freed{c, out.Start}
		}
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		c.pollLoop(ctx, out, acked, free, opt)
	}()
	for i := range ops {
		out.Records[i].Op = &ops[i]
	}
	if opt.Closed {
		c.submitClosed(ctx, out, acked, free, opt.Outstanding)
	} else {
		c.submitOpen(ctx, out, acked)
	}
	close(acked)
	<-pollDone
	out.End = time.Now()
	return out
}

// freed says a closed-loop client has its result and may send again.
type freed struct {
	client int
	at     time.Time
}

func (c *Client) submitOpen(ctx context.Context, out *Outcome, acked chan<- *Record) {
	for i := range out.Records {
		rec := &out.Records[i]
		rec.Due = out.Start.Add(rec.Op.Due)
		if d := time.Until(rec.Due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				rec.Err = "canceled before it was sent"
				continue
			}
		}
		c.post(ctx, rec)
		if rec.HasJob() {
			acked <- rec
		}
	}
}

func (c *Client) submitClosed(ctx context.Context, out *Outcome, acked chan<- *Record, free chan freed, clients int) {
	next := make([]int, clients) // per client, the index of its next op
	for c := range next {
		next[c] = c
	}
	for left := len(out.Records); left > 0; {
		var f freed
		select {
		case f = <-free:
		case <-ctx.Done():
			for i := range out.Records {
				if rec := &out.Records[i]; rec.Sent.IsZero() && rec.Err == "" {
					rec.Err = "canceled before it was sent"
				}
			}
			return
		}
		i := next[f.client]
		if i >= len(out.Records) {
			continue // this client has sent all it had
		}
		next[f.client] += clients
		left--
		rec := &out.Records[i]
		rec.Due, rec.client = f.at, f.client
		c.post(ctx, rec)
		if rec.HasJob() {
			acked <- rec
		} else {
			free <- freed{f.client, rec.Acked}
		}
	}
}

func (c *Client) post(ctx context.Context, rec *Record) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.gateway+"/jobs", bytes.NewReader(rec.Op.Body))
	if err != nil {
		rec.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if rec.Op.Tenant != "" {
		req.Header.Set(service.TenantHeader, rec.Op.Tenant)
	}
	rec.Sent = time.Now()
	resp, err := c.submit.Do(req)
	if err != nil {
		rec.Acked, rec.Err = time.Now(), "POST /jobs: "+err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Acked = time.Now()
	rec.Status, rec.RetryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
	if err != nil {
		rec.Status, rec.Err = 0, "POST /jobs: reading the response: "+err.Error()
		return
	}
	if rec.Status == http.StatusOK || rec.Status == http.StatusCreated {
		if err := json.Unmarshal(body, &rec.Accepted); err != nil {
			rec.Err = "POST /jobs: undecodable response: " + err.Error()
		}
	}
}

// pollItem is a job waiting for its next poll.
type pollItem struct {
	rec *Record
	at  time.Time
}

type pollHeap []pollItem

func (h pollHeap) Len() int           { return len(h) }
func (h pollHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h pollHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pollHeap) Push(x any)        { *h = append(*h, x.(pollItem)) }
func (h *pollHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func (c *Client) pollLoop(ctx context.Context, out *Outcome, acked <-chan *Record, free chan<- freed, opt Options) {
	var h pollHeap
	add := func(rec *Record) { heap.Push(&h, pollItem{rec, rec.Acked.Add(PollEvery)}) }
	finish := func(rec *Record) {
		if free != nil {
			free <- freed{rec.client, rec.Done}
		}
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if h.Len() == 0 {
			if acked == nil {
				return
			}
			rec, ok := <-acked
			if !ok {
				return
			}
			add(rec)
			continue
		}
		// Take in whatever was acknowledged meanwhile, so that a new job's
		// first poll competes with the older jobs' polls by deadline.
		select {
		case rec, ok := <-acked:
			if ok {
				add(rec)
				continue
			}
			acked = nil
		default:
		}
		if wait := time.Until(h[0].at); wait > 0 {
			timer.Reset(wait)
			select {
			case rec, ok := <-acked:
				timer.Stop()
				if ok {
					add(rec)
				} else {
					acked = nil
				}
				continue
			case <-ctx.Done():
				for _, it := range h {
					it.rec.Err, it.rec.Done = "canceled while waiting for the result", time.Now()
				}
				return
			case <-timer.C:
			}
		}
		it := heap.Pop(&h).(pollItem)
		rec := it.rec
		start := time.Now()
		out.PollLag = append(out.PollLag, start.Sub(it.at))
		code, body, err := c.get(ctx, "/jobs/"+rec.Accepted.ID+"/result")
		end := time.Now()
		rec.Polls++
		switch {
		case err == nil && code == http.StatusAccepted && end.Sub(rec.Acked) < opt.Timeout:
			if opt.Trace {
				rec.PollSpans = append(rec.PollSpans, Interval{start, end})
			}
			heap.Push(&h, pollItem{rec, end.Add(PollEvery)})
			continue
		case err != nil:
			rec.Err = "GET result: " + err.Error()
		case code == http.StatusAccepted:
			rec.Err = fmt.Sprintf("no result %.1f s after the acknowledgement", end.Sub(rec.Acked).Seconds())
		}
		rec.FetchStart, rec.Done, rec.ResultStatus, rec.Body = start, end, code, body
		if opt.Trace && code == http.StatusOK && rec.Op.Seq%spanSample == 0 {
			if code, spans, err := c.get(ctx, "/jobs/"+rec.Accepted.ID+"/spans"); err == nil && code == http.StatusOK {
				rec.ServerSpans = spans
			}
		}
		finish(rec)
	}
}

func (c *Client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.gateway+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.poll.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
