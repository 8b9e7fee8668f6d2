package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/load"
	"repro/bench/probe"
	"repro/bench/report"
	"repro/bench/workload"
)

// span is one line of a trace file. Spans of one job share Trace (the job
// ID); Parent is the Span number of the span that caused this one, 0 for
// the job's root span.
type span struct {
	Trace   string         `json:"trace"`
	Span    int            `json:"span"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// serverSpans is the GET /jobs/{id}/spans body.
type serverSpans struct {
	Spans []struct {
		Chunk          int       `json:"chunk"`
		Worker         string    `json:"worker"`
		Granted        time.Time `json:"granted"`
		QueueSeconds   float64   `json:"queueSeconds"`
		WireSeconds    float64   `json:"wireSeconds"`
		ComputeSeconds float64   `json:"computeSeconds"`
		ReduceSeconds  float64   `json:"reduceSeconds"`
	} `json:"spans"`
}

// attribution is what the trace says of where the sampled jobs' time went.
type attribution struct {
	spans        int
	unattributed float64 // share of mean submit→result no layer accounts for
}

// traceSpans turns the traced pass's records into spans — per job one
// root, one submit, one per poll, one fetch, and for the sampled jobs the
// shard's per-chunk spans — and sums up what they attribute.
func traceSpans(p *pass) ([]span, *attribution, error) {
	var spans []span
	var total, attributed float64
	for i := range p.out.Records {
		r := &p.out.Records[i]
		if r.Sent.IsZero() {
			continue
		}
		id := r.Accepted.ID
		if id == "" {
			id = fmt.Sprintf("op-%d", r.Op.Seq)
		}
		n := 0
		emit := func(parent int, name string, start, end time.Time, attrs map[string]any) {
			n++
			spans = append(spans, span{Trace: id, Span: n, Parent: parent, Name: name,
				StartNS: start.UnixNano(), EndNS: end.UnixNano(), Attrs: attrs})
		}
		end := r.Acked
		if !r.Done.IsZero() {
			end = r.Done
		}
		emit(0, "job", r.Due, end, map[string]any{
			"seq": r.Op.Seq, "class": r.Op.Class, "tenant": r.Op.Tenant, "ok": p.chk.OK[i]})
		emit(1, "submit", r.Sent, r.Acked, map[string]any{"status": r.Status, "bytes": len(r.Op.Body)})
		for _, iv := range r.PollSpans {
			emit(1, "poll", iv.Start, iv.End, nil)
		}
		if !r.Done.IsZero() {
			emit(1, "fetch", r.FetchStart, r.Done, map[string]any{"status": r.ResultStatus, "bytes": len(r.Body)})
		}
		if r.ServerSpans == nil || !p.chk.OK[i] {
			continue
		}
		var ss serverSpans
		if err := json.Unmarshal(r.ServerSpans, &ss); err != nil {
			return nil, nil, fmt.Errorf("spans of job %s: %w", id, err)
		}
		// Blocking path of the job as far as the layers account for it:
		// the acknowledged submit, the wait of the first chunk for a
		// worker, every chunk's compute and reduce (one worker per shard
		// runs them one after another), and the final fetch.
		acc := r.Acked.Sub(r.Sent).Seconds() + r.Done.Sub(r.FetchStart).Seconds()
		first := -1
		secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
		for k, s := range ss.Spans {
			if first < 0 || s.Granted.Before(ss.Spans[first].Granted) {
				first = k
			}
			acc += s.ComputeSeconds + s.ReduceSeconds
			attrs := map[string]any{"chunk": s.Chunk, "worker": s.Worker}
			emit(1, "chunk.queue", s.Granted.Add(-secs(s.QueueSeconds)), s.Granted, attrs)
			wired := s.Granted.Add(secs(s.WireSeconds))
			computed := wired.Add(secs(s.ComputeSeconds))
			emit(1, "chunk.wire", s.Granted, wired, attrs)
			emit(1, "chunk.compute", wired, computed, attrs)
			emit(1, "chunk.reduce", computed, computed.Add(secs(s.ReduceSeconds)), attrs)
		}
		if first >= 0 {
			acc += ss.Spans[first].QueueSeconds
		}
		total += r.Done.Sub(r.Due).Seconds()
		attributed += acc
	}
	at := &attribution{spans: len(spans)}
	if total > 0 {
		at.unattributed = (total - attributed) / total
	}
	return spans, at, nil
}

// writeTrace writes the traced pass's spans as JSON lines. They were held
// in memory until now; nothing was written while the pass ran.
func writeTrace(path string, p *pass) (*attribution, error) {
	spans, at, err := traceSpans(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return at, os.WriteFile(path, buf.Bytes(), 0o644)
}

// perLayer assembles the per-layer metrics of a traced pass: client spans
// (C), scrape deltas (S), /proc (O) and the layer probes (P).
func (e *env) perLayer(p, ref *pass, idleMS float64, at *attribution) (report.Metrics, error) {
	m := report.Metrics{}
	d := p.scrape
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	exp := p.w.Expect()
	valid := float64(exp.Valid)

	// mcload itself.
	lag, n := schedLagP90(p.out)
	m.Set("mcload.schedule_lag_p90_ms", lag, "ms", n)
	var pollLag []float64
	for _, l := range p.out.PollLag {
		pollLag = append(pollLag, ms(l))
	}
	sort.Float64s(pollLag)
	m.Set("mcload.poll_lag_p90_ms", report.Percentile(pollLag, 90), "ms", len(pollLag))
	m.Set("mcload.cpu_s", p.selfCPU, "s", 0)
	m.Set("mcload.failed_share", ratio(float64(p.chk.Failed), float64(len(p.out.Records))), "ratio", len(p.out.Records))

	// Client spans by what the request was.
	var polls, jobs, bodyBytes, resultBytes, fetchS float64
	var ack, ackLayered, ackVoxel, fetch, hit, fresh []float64
	shed, wrongShed, greedyAdmitted := 0, 0, 0
	var typical *load.Record
	var aResult []byte
	for i := range p.out.Records {
		r := &p.out.Records[i]
		bodyBytes += float64(len(r.Op.Body))
		switch {
		case r.Status == http.StatusTooManyRequests && r.Op.MayShed:
			shed++
		case r.Status == http.StatusTooManyRequests:
			wrongShed++
		case r.Op.MayShed && r.HasJob():
			greedyAdmitted++
		}
		if r.Status != 0 {
			ack = append(ack, ms(r.Acked.Sub(r.Due)))
			switch r.Op.Geometry {
			case workload.GeomVoxel:
				ackVoxel = append(ackVoxel, ms(r.Acked.Sub(r.Due)))
			case workload.GeomHead, workload.GeomSlab:
				ackLayered = append(ackLayered, ms(r.Acked.Sub(r.Due)))
			}
		}
		if !p.chk.OK[i] || !r.HasJob() {
			continue
		}
		jobs++
		polls += float64(r.Polls)
		resultBytes += float64(len(r.Body))
		fetchS += r.Done.Sub(r.FetchStart).Seconds()
		fetch = append(fetch, ms(r.Done.Sub(r.FetchStart)))
		lat := ms(r.Done.Sub(r.Due))
		if r.Accepted.Cached {
			hit = append(hit, lat)
		} else if r.Status == http.StatusCreated {
			fresh = append(fresh, lat)
			if typical == nil {
				typical, aResult = r, r.Body
			}
		}
	}
	if typical == nil {
		return nil, fmt.Errorf("traced pass completed no fresh job to probe with")
	}
	m.Set("mcload.polls_per_job", ratio(polls, jobs), "count", int(jobs))
	m.Set("http.body_bytes", ratio(bodyBytes, float64(len(p.out.Records))), "B", len(p.out.Records))
	sort.Float64s(ack)
	m.Set("http.ack_p50_ms", report.Percentile(ack, 50), "ms", len(ack))
	m.Set("http.ack_p90_ms", report.Percentile(ack, 90), "ms", len(ack))
	m.Set("http.ack_layered_ms", report.Median(ackLayered), "ms", len(ackLayered))
	m.Set("http.ack_voxel_ms", report.Median(ackVoxel), "ms", len(ackVoxel))
	m.Set("result.bytes", ratio(resultBytes, jobs), "B", int(jobs))
	m.Set("result.fetch_ms", report.Median(fetch), "ms", len(fetch))
	m.Set("result.mb_per_s", ratio(resultBytes/1e6, fetchS), "MB/s", int(jobs))
	m.Set("cache.hit_result_ms", report.Median(hit), "ms", len(hit))
	m.Set("cache.fresh_result_ms", report.Median(fresh), "ms", len(fresh))
	m.Set("admission.shed_share", ratio(float64(shed+wrongShed), valid), "ratio", exp.Valid)
	m.Set("admission.greedy_admit_per_s", float64(greedyAdmitted)/p.w.Seconds, "1/s", exp.MayShed)
	m.Set("admission.wrong_shed", float64(wrongShed), "count", 0)
	m.Set("fleet.idle_floor_ms", idleMS, "ms", len(p.w.Idle))

	// Scrape deltas over the traced pass.
	q := func(series string) float64 { return d.Sum("mcqueue:" + series) }
	g := func(series string) float64 { return d.Sum("mcgate:" + series) }
	wk := func(series string) float64 { return d.Sum("mcworker:" + series) }
	submitted := q("service_jobs_submitted_total")
	completed := q("service_chunks_completed_total")
	m.Set("gateway.proxies", g("gateway_proxies_total"), "count", 0)
	m.Set("gateway.cache_hit_share", ratio(g("gateway_cache_hits_total"), valid), "ratio", exp.Valid)
	m.Set("gateway.failovers", g("gateway_replica_failovers_total"), "count", 0)
	m.Set("gateway.sheds", g("gateway_sheds_total"), "count", 0)
	m.Set("registry.coalesced", q("service_jobs_coalesced_total"), "count", 0)
	m.Set("registry.cache_lookups", q("service_cache_lookups_total"), "count", 0)
	m.Set("wal.appends_per_job", ratio(q("wal_appends_total"), submitted), "count", int(submitted))
	m.Set("wal.bytes_per_job", ratio(q("wal_bytes_total"), submitted), "B", int(submitted))
	m.Set("wal.fsync_s", q("wal_fsync_seconds_sum"), "s", int(q("wal_fsync_seconds_count")))
	m.Set("wal.append_errors", q("wal_append_errors_total"), "count", 0)
	spanSum := func(seg string) float64 { return q("service_span_" + seg + "_seconds_sum") }
	chunks := q("service_span_queue_seconds_count")
	m.Set("fleet.queue_ms_per_chunk", 1e3*ratio(spanSum("queue"), chunks), "ms", int(chunks))
	m.Set("fleet.wire_ms_per_chunk", 1e3*ratio(spanSum("wire"), chunks), "ms", int(chunks))
	m.Set("fleet.chunks_granted", q("service_chunks_granted_total"), "count", 0)
	m.Set("fleet.useful_share", ratio(completed, q("service_chunks_granted_total")), "ratio", 0)
	m.Set("fleet.reassigned", q("service_chunks_reassigned_total"), "count", 0)
	m.Set("fleet.duplicate_results", q("service_duplicate_results_total"), "count", 0)
	m.Set("protocol.bytes_per_chunk", ratio(wk("worker_conn_bytes_total"), completed), "B", int(completed))
	m.Set("distsys.chunks_per_batch", ratio(wk("worker_chunks_computed_total"), wk("worker_batches_flushed_total")), "count", int(wk("worker_batches_flushed_total")))
	m.Set("distsys.chunk_ms", 1e3*ratio(wk("worker_chunk_seconds_sum"), wk("worker_chunk_seconds_count")), "ms", int(wk("worker_chunk_seconds_count")))
	m.Set("distsys.results_rejected", wk("worker_results_rejected_total"), "count", 0)
	// The fleet's duty cycle: kernel seconds per worker-second of the pass.
	m.Set("mc.compute_share", ratio(spanSum("compute"), workload.Shards*p.wall), "ratio", int(chunks))
	m.Set("reduce.ms_per_batch", 1e3*ratio(q("service_reduce_seconds_sum"), q("service_batches_reduced_total")), "ms", int(q("service_batches_reduced_total")))
	m.Set("reduce.merges", q("service_reduce_seconds_count"), "count", 0)
	m.Set("cache.exact_hit_share", ratio(g(`gateway_cache_hits_total{index="exact"}`)+q(`service_cache_hits_total{index="exact"}`), valid), "ratio", exp.Valid)
	m.Set("cache.physics_hit_share", ratio(g(`gateway_cache_hits_total{index="physics"}`)+q(`service_cache_hits_total{index="physics"}`), valid), "ratio", exp.Valid)
	m.Set("cache.coalesced_share", ratio(q("service_jobs_coalesced_total"), valid), "ratio", exp.Valid)

	// /proc.
	for _, role := range []string{"mcgate", "mcqueue", "mcworker"} {
		m.Set("proc."+role+".cpu_s", p.cpu[role], "s", 0)
		m.Set("proc."+role+".rss_mb", p.rss[role], "MiB", 0)
	}
	m.Set("tree_cpu_s", p.treeCPU(), "s", 0)

	// The trace itself.
	refRate := ratio(float64(len(ref.out.Records)-ref.chk.Failed), ref.wall)
	rate := ratio(float64(len(p.out.Records)-p.chk.Failed), p.wall)
	m.Set("trace.overhead_pct", 100*ratio(refRate-rate, refRate), "%", 0)

	// The counters must tell the same story as the answers: every repeat,
	// looser target and duplicate that was not shed shows in exactly one
	// hit or coalesce counter. (Each answer's own cached and coalesced
	// flags were checked against the schedule already.)
	want := map[workload.Class]float64{}
	for i := range p.out.Records {
		// By the answer's own flags: a duplicate that came late (see
		// load.Check) hit the exact index or ran as a job of its own.
		switch r := &p.out.Records[i]; {
		case !r.HasJob():
		case r.Accepted.Coalesced:
			want[workload.ClassDup]++
		case r.Accepted.Cached && r.Op.Class == workload.ClassLooser:
			want[workload.ClassLooser]++
		case r.Accepted.Cached:
			want[workload.ClassRepeat]++
		}
	}
	for _, c := range []struct {
		class  workload.Class
		metric string
	}{{workload.ClassRepeat, "cache.exact_hit_share"}, {workload.ClassLooser, "cache.physics_hit_share"}, {workload.ClassDup, "cache.coalesced_share"}} {
		if got := m[c.metric].Value * valid; got != want[c.class] {
			return nil, fmt.Errorf("%s: the daemons counted %g, the answers show %g", c.metric, got, want[c.class])
		}
	}
	m.Set("trace.unattributed_share", at.unattributed, "ratio", 0)
	m.Set("trace.spans", float64(at.spans), "count", 0)
	m.Set("build_s", e.buildS, "s", 0)

	// Probes, on this workload's own submission and result.
	dir, err := os.MkdirTemp(e.runParent, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probed, err := probe.Run(probe.Inputs{
		Req: typical.Op.Req, Body: typical.Op.Body, Result: aResult,
		WalRecordBytes: int(ratio(q("wal_bytes_total"), q("wal_appends_total"))), Dir: dir,
	})
	if err != nil {
		return nil, err
	}
	for name, s := range probed {
		m[name] = s
	}
	return m, nil
}
