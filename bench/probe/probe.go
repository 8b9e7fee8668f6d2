// Package probe times each layer of the system from outside it: every
// probe calls a module's public functions directly, in this process, on
// inputs taken from the workload being measured, and reports the median
// cost of one call. The numbers say what a layer costs when nothing else
// contends with it; what it costs inside the running tree is what the
// end-to-end metrics and the scraped counters show. Spans recorded inside
// the programs are a later change (ROADMAP item 4).
package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/bench/report"
	"repro/bench/workload"
	"repro/internal/canon"
	"repro/internal/gateway"
	"repro/internal/mc"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wal"
)

// Inputs are what the probes take from the measured run.
type Inputs struct {
	// Req and Body are the workload's typical submission: its first timed
	// request that had to run.
	Req  *service.JobRequest
	Body []byte
	// Result is one result body the run fetched (nil: none to hand).
	Result []byte
	// WalRecordBytes is the mean journal record size the shards wrote.
	WalRecordBytes int
	// Dir is scratch space for the journal probes; the caller removes it.
	Dir string
}

// budget bounds one probe's repetitions: it stops at maxSamples samples or
// once this much time has gone, whichever is first, but never before three.
const (
	budget     = 150 * time.Millisecond
	maxSamples = 200
)

// timed repeats fn and returns the median duration of one call in
// nanoseconds and the number of samples. One sample times inner
// consecutive calls, for functions too short to time alone. setup, if not
// nil, runs before each sample outside the timing.
func timed(inner int, setup func(), fn func()) (float64, int) {
	var samples []float64
	start := time.Now()
	for len(samples) < maxSamples && (len(samples) < 3 || time.Since(start) < budget) {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(inner))
	}
	sort.Float64s(samples)
	return report.Percentile(samples, 50), len(samples)
}

// Run executes every probe and returns the metrics by name.
func Run(in Inputs) (report.Metrics, error) {
	m := report.Metrics{}
	reqs, err := workload.Requests()
	if err != nil {
		return nil, err
	}
	bodies := map[string][]byte{}
	for name, r := range reqs {
		if bodies[name], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	us := func(name string, ns float64, n int) { m.Set(name, ns/1e3, "us", n) }

	// http: JSON body → service.JobRequest, as both tiers' submit handlers do.
	decode := func(body []byte) (*service.JobRequest, error) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req service.JobRequest
		return &req, dec.Decode(&req)
	}
	for geom, label := range map[string]string{workload.GeomSlab: "tiny", workload.GeomHead: "head", workload.GeomVoxel: "voxel"} {
		body := bodies[geom]
		if _, err := decode(body); err != nil {
			return nil, fmt.Errorf("probe http.decode %s: %w", label, err)
		}
		ns, n := timed(1, nil, func() { decode(body) })
		us("http.decode_us."+label, ns, n)
	}

	// keys: normalize + canonical encoding + SHA-256, twice (content key
	// and physics key).
	jobSpec := func(r *service.JobRequest, seed uint64) service.JobSpec {
		spec := workload.SpecOf(r)
		spec.Seed = seed
		return spec
	}
	for geom, label := range map[string]string{workload.GeomSlab: "tiny", workload.GeomVoxel: "voxel"} {
		r := reqs[geom]
		spec := jobSpec(r, 1)
		if _, _, err := service.RoutingKeys(&spec, 0); err != nil {
			return nil, fmt.Errorf("probe keys.routing %s: %w", label, err)
		}
		ns, n := timed(1, nil, func() {
			spec := jobSpec(r, 1)
			service.RoutingKeys(&spec, 0)
		})
		us("keys.routing_us."+label, ns, n)
	}
	enc, err := canon.Append(nil, in.Req.Spec)
	if err != nil {
		return nil, fmt.Errorf("probe keys.bytes_hashed: %w", err)
	}
	m.Set("keys.bytes_hashed", float64(2*len(enc)), "B", 0)

	// admission: one debit of a three-tenant token bucket.
	open := service.TenantClass{JobsPerSec: 1e9, JobBurst: 1e9}
	tb := service.NewTokenBucket(&service.TenantTable{Tenants: map[string]service.TenantClass{
		workload.TenantAlpha: open, workload.TenantBeta: open, workload.TenantGreedy: open}}, nil)
	ns, n := timed(1000, nil, func() { tb.Admit(workload.TenantAlpha, 16) })
	m.Set("admission.admit_ns", ns, "ns", n)

	// spec: Spec.Build. A voxel grid caches its traversal accelerator, so
	// each sample builds a freshly decoded spec.
	for _, geom := range []string{workload.GeomSlab, workload.GeomHead, workload.GeomVoxel} {
		var fresh *service.JobRequest
		ns, n := timed(1,
			func() { fresh, _ = decode(bodies[geom]) },
			func() {
				if _, berr := fresh.Spec.Build(); berr != nil {
					err = berr
				}
			})
		if err != nil {
			return nil, fmt.Errorf("probe spec.build %s: %w", geom, err)
		}
		us("spec.build_us."+geom, ns, n)
	}

	// registry and journal: Submit of the workload's own job into a
	// registry without workers, journal off and on.
	submit := func(journal *service.Journal) (float64, int, error) {
		// Both variants start from a collected heap: a job with a scoring
		// grid allocates a megabyte, and the collector's pacing would
		// otherwise favour whichever variant runs second.
		runtime.GC()
		reg := service.New(service.Options{Journal: journal})
		seed := uint64(0)
		var serr error
		ns, n := timed(1, nil, func() {
			seed++
			if _, e := reg.Submit(jobSpec(in.Req, seed)); e != nil {
				serr = e
			}
		})
		return ns, n, serr
	}
	offNS, n, err := submit(nil)
	if err != nil {
		return nil, fmt.Errorf("probe registry.submit: %w", err)
	}
	us("registry.submit_us", offNS, n)
	openWAL := func(name string) (*wal.Log, error) {
		wlog, _, err := wal.Open(wal.Options{Dir: filepath.Join(in.Dir, name), Fsync: wal.FsyncInterval})
		return wlog, err
	}
	wlog, err := openWAL("journal")
	if err != nil {
		return nil, fmt.Errorf("probe journal: %w", err)
	}
	onNS, n, err := submit(service.NewJournal(wlog, service.JournalOptions{}))
	wlog.Close()
	if err != nil {
		return nil, fmt.Errorf("probe registry.submit with journal: %w", err)
	}
	us("registry.submit_journal_us", onNS, n)
	us("journal.submit_delta_us", onNS-offNS, n)

	// wal: one Append of a record as large as the shards' mean record.
	if wlog, err = openWAL("wal"); err != nil {
		return nil, fmt.Errorf("probe wal: %w", err)
	}
	record := make([]byte, max(in.WalRecordBytes, 1))
	ns, n = timed(1, nil, func() {
		if aerr := wlog.Append(wal.RecChunksReduced, record); aerr != nil {
			err = aerr
		}
	})
	wlog.Close()
	if err != nil {
		return nil, fmt.Errorf("probe wal.append: %w", err)
	}
	us("wal.append_us", ns, n)

	// sched: one pick among three tenants with ten runnable jobs each.
	tl := sched.NewTwoLevel()
	var cands []sched.TenantJob
	for t, tenant := range []string{workload.TenantAlpha, workload.TenantBeta, workload.TenantGreedy} {
		for j := 0; j < 10; j++ {
			cands = append(cands, sched.TenantJob{Tenant: tenant, TenantWeight: 1, Job: uint64(10*t + j + 1), JobWeight: 1})
		}
	}
	ns, n = timed(100, nil, func() { tl.Charge(cands[tl.Pick(cands)].Job, 1) })
	m.Set("sched.pick_ns", ns, "ns", n)

	// mc, codec, reduce, protocol: one chunk per geometry.
	chunk := map[string]*mc.Tally{}
	for _, geom := range []string{workload.GeomSlab, workload.GeomHead, workload.GeomVoxel, "grid"} {
		cfg, err := reqs[geom].Spec.Build()
		if err != nil {
			return nil, fmt.Errorf("probe mc %s: %w", geom, err)
		}
		runner, err := mc.NewRunner(cfg)
		if err != nil {
			return nil, fmt.Errorf("probe mc %s: %w", geom, err)
		}
		const photons = workload.ChunkPhotons
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ns, n := timed(1, nil, func() { chunk[geom] = runner.Run(photons, rng.New(7)) })
		runtime.ReadMemStats(&ms1)
		switch geom {
		case workload.GeomSlab:
			m.Set("mc.slab_ns_per_photon", ns/photons, "ns", n)
		case workload.GeomHead:
			m.Set("mc.layered_ns_per_photon", ns/photons, "ns", n)
			m.Set("mc.allocs_per_photon", float64(ms1.Mallocs-ms0.Mallocs)/float64(n*photons), "count", n)
		case workload.GeomVoxel:
			m.Set("mc.voxel_ns_per_photon", ns/photons, "ns", n)
		}
	}
	for geom, label := range map[string]string{workload.GeomHead: "scalar", "grid": "grid"} {
		t := chunk[geom]
		var data []byte
		ns, n := timed(1, nil, func() { data = mc.AppendTally(data[:0], t) })
		us("codec.encode_us."+label, ns, n)
		m.Set("codec.bytes."+label, float64(len(data)), "B", 0)
		var into mc.Tally
		ns, n = timed(1, nil, func() {
			if derr := mc.DecodeTallyInto(&into, data); derr != nil {
				err = derr
			}
		})
		if err != nil {
			return nil, fmt.Errorf("probe codec.decode %s: %w", label, err)
		}
		us("codec.decode_us."+label, ns, n)

		acc, err := mc.DecodeTally(data)
		if err != nil {
			return nil, fmt.Errorf("probe reduce.merge %s: %w", label, err)
		}
		ns, n = timed(1, nil, func() {
			if merr := acc.Merge(t); merr != nil {
				err = merr
			}
		})
		if err != nil {
			return nil, fmt.Errorf("probe reduce.merge %s: %w", label, err)
		}
		us("reduce.merge_us."+label, ns, n)

		if ns, n, err = roundtrip(data); err != nil {
			return nil, fmt.Errorf("probe protocol.roundtrip %s: %w", label, err)
		}
		us("protocol.roundtrip_us."+label, ns, n)
	}

	// result: JSON encoding of one of the run's own result bodies.
	if in.Result != nil {
		var body service.JobResultBody
		if err := json.Unmarshal(in.Result, &body); err != nil {
			return nil, fmt.Errorf("probe result.encode: %w", err)
		}
		ns, n = timed(1, nil, func() { json.Marshal(&body) })
		us("result.encode_us", ns, n)
	} else {
		us("result.encode_us", 0, 0)
	}

	hop, n, err := gatewayHop(in.Body)
	if err != nil {
		return nil, fmt.Errorf("probe gateway.hop: %w", err)
	}
	us("gateway.hop_us", hop, n)
	return m, nil
}

// roundtrip times a worker's flush as the wire sees it: a task request
// carrying a result batch of eight chunks' pre-reduced tally goes one way
// over an in-memory pipe, the reply comes back.
func roundtrip(tally []byte) (float64, int, error) {
	a, b := net.Pipe()
	client, server := protocol.NewConn(a), protocol.NewConn(b)
	defer client.Close()
	defer server.Close()
	serverErr := make(chan error, 1)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				serverErr <- err
				return
			}
			if err := server.Send(&protocol.Message{Type: protocol.MsgNoWork, NoWork: &protocol.NoWork{}}); err != nil {
				serverErr <- err
				return
			}
		}
	}()
	msg := &protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{
		Want: 8,
		Batch: &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
			JobID: 1, Chunks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Elapsed: time.Millisecond, TallyData: tally,
		}}},
	}}
	var err error
	ns, n := timed(1, nil, func() {
		if err != nil {
			return
		}
		if err = client.Send(msg); err == nil {
			_, err = client.Recv()
		}
	})
	return ns, n, err
}

// gatewayHop returns what the gateway adds to a submission: the median
// POST /jobs through an in-process gateway over a stub shard, minus the
// median of the same POST sent to the stub directly. The stub answers at
// once, so the difference is the gateway's own work — reading the body,
// deriving the keys, probing its result tier, and the second HTTP exchange.
func gatewayHop(body []byte) (float64, int, error) {
	accepted, err := json.Marshal(service.JobAccepted{ID: "00000000000000ff", State: "queued"})
	if err != nil {
		return 0, 0, err
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusCreated)
		}
		w.Write(accepted)
	}))
	defer stub.Close()
	gw, err := gateway.New(gateway.Options{Shards: [][]string{{stub.URL}}})
	if err != nil {
		return 0, 0, err
	}
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	post := func(base string) error {
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("POST %s/jobs: %s", base, resp.Status)
		}
		return nil
	}
	var perr error
	time1 := func(base string) (float64, int) {
		return timed(1, nil, func() {
			if e := post(base); e != nil {
				perr = e
			}
		})
	}
	direct, _ := time1(stub.URL)
	proxied, n := time1(front.URL)
	return proxied - direct, n, perr
}
