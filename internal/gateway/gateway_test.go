package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/distsys"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

func slabSpec(thicknessMM float64) *mc.Spec {
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, thicknessMM)
	return mc.NewSpec(model,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

// shardServer is one backing shard: a registry with its own worker pump
// behind a real HTTP listener.
func shardServer(t *testing.T, opts service.Options, workers int) (*service.Registry, *httptest.Server) {
	t.Helper()
	reg := service.New(opts)
	for i := 0; i < workers; i++ {
		server, client := net.Pipe()
		go reg.HandleConn(server)
		go func(i int) {
			_, _ = distsys.Work(client, distsys.WorkerOptions{Name: fmt.Sprintf("w%d", i)})
		}(i)
		t.Cleanup(func() { client.Close() })
	}
	ts := httptest.NewServer(service.NewAPI(reg).Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

func gatewayServer(t *testing.T, opts Options) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func post(t *testing.T, url, tenant string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(service.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func submitJob(t *testing.T, base, tenant string, req service.JobRequest) service.JobAccepted {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, raw := post(t, base+"/jobs", tenant, body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs: http %d: %s", resp.StatusCode, raw)
	}
	var acc service.JobAccepted
	if err := json.Unmarshal([]byte(raw), &acc); err != nil {
		t.Fatalf("bad accept body %q: %v", raw, err)
	}
	return acc
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := get(t, base+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: http %d: %s", id, code, raw)
		}
		var st service.JobStatus
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case service.StateDone.String():
			return
		case service.StateCanceled.String():
			t.Fatalf("job %s canceled", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

// TestGatewayRoutesAndCompletes is the tentpole e2e: jobs submitted to a
// 2-shard gateway land on the shard owning their key, complete on that
// shard's fleet, and every read — status, result, list, stats — comes
// back through the gateway as if it were one registry.
func TestGatewayRoutesAndCompletes(t *testing.T) {
	regA, tsA := shardServer(t, service.Options{}, 2)
	regB, tsB := shardServer(t, service.Options{}, 2)
	_, gw := gatewayServer(t, Options{Shards: [][]string{{tsA.URL}, {tsB.URL}}})

	const jobs = 8
	ids := make([]string, 0, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		acc := submitJob(t, gw.URL, "", service.JobRequest{
			Spec: slabSpec(5), Photons: 300, ChunkPhotons: 100, Seed: seed,
		})
		ids = append(ids, acc.ID)
	}
	for _, id := range ids {
		waitDone(t, gw.URL, id)
	}
	if a, b := regA.Stats().JobsSubmitted, regB.Stats().JobsSubmitted; a == 0 || b == 0 || a+b != jobs {
		t.Fatalf("shard split %d/%d, want both nonzero summing to %d", a, b, jobs)
	}

	// The gateway's proxied result bytes are the shard's own bytes: fetch
	// each result both ways and compare verbatim.
	for _, id := range ids {
		code, viaGW := get(t, gw.URL+"/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result via gateway: http %d: %s", code, viaGW)
		}
		direct := tsA
		var idNum uint64
		fmt.Sscanf(id, "%016x", &idNum)
		if service.ShardOfID(idNum, 2) == 1 {
			direct = tsB
		}
		if _, viaShard := get(t, direct.URL+"/jobs/"+id+"/result"); viaShard != viaGW {
			t.Fatalf("gateway result differs from shard result for %s:\n%s\nvs\n%s", id, viaGW, viaShard)
		}
	}

	// Aggregated surfaces: /stats sums, GET /jobs concatenates, /fleet
	// concatenates workers.
	code, raw := get(t, gw.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	var st statsBody
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.ShardsUp != 2 {
		t.Fatalf("stats shards %d up %d, want 2/2", st.Shards, st.ShardsUp)
	}
	if st.JobsDone != jobs || st.JobsSubmitted != jobs {
		t.Fatalf("aggregated stats done=%d submitted=%d, want %d", st.JobsDone, st.JobsSubmitted, jobs)
	}
	if st.Workers != 4 {
		t.Fatalf("aggregated workers %d, want 4", st.Workers)
	}
	code, raw = get(t, gw.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", code)
	}
	var listed []service.JobStatus
	if err := json.Unmarshal([]byte(raw), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != jobs {
		t.Fatalf("gateway listed %d jobs, want %d", len(listed), jobs)
	}
	code, raw = get(t, gw.URL+"/fleet")
	if code != http.StatusOK {
		t.Fatalf("GET /fleet: %d", code)
	}
	var fl service.FleetBody
	if err := json.Unmarshal([]byte(raw), &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Workers) != 4 {
		t.Fatalf("gateway fleet has %d workers, want 4", len(fl.Workers))
	}
}

// TestResultBytesSameAtEveryTier pins the client edge across the compact
// shard→gateway hop, for every result shape: the body read through the
// gateway — decoded from the compact codec and JSON-encoded there — is byte
// for byte the body the shard serves a client directly, and a resubmission
// — answered by its shard with the job that ran it — reads byte for byte
// the same again.
func TestResultBytesSameAtEveryTier(t *testing.T) {
	_, tsA := shardServer(t, service.Options{}, 2)
	_, tsB := shardServer(t, service.Options{}, 2)
	oreg := obs.NewRegistry()
	_, gw := gatewayServer(t, Options{Shards: [][]string{{tsA.URL}, {tsB.URL}}, Obs: oreg})

	pencil := source.Spec{Kind: source.KindPencil}
	ring := detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}
	head := mc.NewSpec(tissue.AdultHead(), pencil, ring) // white matter is +Inf thick
	grid := mc.NewSpec(tissue.AdultHead(), pencil, detector.Spec{Kind: detector.KindAnnulus, RMin: 10, RMax: 30})
	grid.PathGrid = &mc.GridSpec{N: 50, Edge: 100}
	vox := voxel.New("phantom", 30, 30, 10, 1, 1, 0.5, "phantom",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	moments := slabSpec(5)
	moments.TrackMoments = true

	for name, req := range map[string]service.JobRequest{
		"slab":  {Spec: slabSpec(5), Photons: 300, ChunkPhotons: 100, Seed: 1},
		"head":  {Spec: head, Photons: 300, ChunkPhotons: 100, Seed: 2},
		"voxel": {Spec: mc.NewVoxelSpec(vox, pencil, ring), Photons: 300, ChunkPhotons: 100, Seed: 3},
		"grid":  {Spec: grid, Photons: 600, ChunkPhotons: 200, Seed: 4},
		"target": {Spec: moments, ChunkPhotons: 200, Seed: 5,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}},
	} {
		t.Run(name, func(t *testing.T) {
			acc := submitJob(t, gw.URL, "", req)
			waitDone(t, gw.URL, acc.ID)
			code, viaGW := get(t, gw.URL+"/jobs/"+acc.ID+"/result")
			if code != http.StatusOK {
				t.Fatalf("result via gateway: http %d: %s", code, viaGW)
			}
			var id uint64
			fmt.Sscanf(acc.ID, "%016x", &id)
			shard := []*httptest.Server{tsA, tsB}[service.ShardOfID(id, 2)]
			if _, direct := get(t, shard.URL+"/jobs/"+acc.ID+"/result"); direct != viaGW {
				t.Fatalf("gateway body differs from the shard's own:\n%.300s\nvs\n%.300s", viaGW, direct)
			}

			hit := submitJob(t, gw.URL, "", req)
			if !hit.Cached || hit.ID != acc.ID {
				t.Fatalf("resubmission %+v, want %s itself, cached", hit, acc.ID)
			}
			code, viaHit := get(t, gw.URL+"/jobs/"+hit.ID+"/result")
			if code != http.StatusOK {
				t.Fatalf("cache hit's result: http %d", code)
			}
			if viaHit != viaGW {
				t.Fatalf("the repeat's body differs from the run's:\n%.300s\nvs\n%.300s", viaHit, viaGW)
			}
		})
	}

	// The layer has its histogram: one observation per proxied result, a
	// cache hit's included.
	var metrics strings.Builder
	oreg.WriteText(&metrics)
	for _, want := range []string{"gateway_result_seconds_count 10", "gateway_result_bytes_count 10"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("gateway metrics lack %q", want)
		}
	}
}

// TestGatewayRoutingIsStableAcrossInstances pins statelessness: a second
// gateway built over the same shard list routes an identical submission
// to the same shard — there is no per-instance salt, table, or ordering
// dependence to lose in a restart.
func TestGatewayRoutingIsStableAcrossInstances(t *testing.T) {
	// No workers: the job stays queued, so the second submission coalesces
	// onto it. (With a worker it could finish first, and the second would be
	// an exact hit on the same job rather than a coalesce.)
	regA, tsA := shardServer(t, service.Options{}, 0)
	regB, tsB := shardServer(t, service.Options{}, 0)
	_, gw1 := gatewayServer(t, Options{Shards: [][]string{{tsA.URL}, {tsB.URL}}})
	_, gw2 := gatewayServer(t, Options{Shards: [][]string{{tsA.URL}, {tsB.URL}}})

	req := service.JobRequest{Spec: slabSpec(7), Photons: 200, ChunkPhotons: 100, Seed: 123}
	acc1 := submitJob(t, gw1.URL, "", req)
	acc2 := submitJob(t, gw2.URL, "", req) // coalesces on the same shard
	if acc1.ID != acc2.ID {
		t.Fatalf("two gateways minted different IDs for one spec: %s vs %s", acc1.ID, acc2.ID)
	}
	if got := regA.Stats().JobsSubmitted + regB.Stats().JobsSubmitted; got != 1 {
		t.Fatalf("identical submissions created %d jobs across shards, want 1", got)
	}
}

// TestTierHitIsAJobOnItsShard: a looser-target resubmission through a
// gateway that never saw the run it rides on is a physics hit on the shard
// that ran it, although its own content key belongs to the other shard — a
// moments-tracking submission is routed by its physics key, so no gateway
// keeps a tier of results. The hit is counted where it is served, computes
// nothing, and is answered by the run itself, as an exact repeat is: both
// name the run's ID, each is counted under its own index and traced on the
// run's ring, the run's status, result and events read through either
// gateway, its tally meets the looser target, and cancelling it is the
// shard's 409.
func TestTierHitIsAJobOnItsShard(t *testing.T) {
	obsByShard := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	_, tsA := shardServer(t, service.Options{Obs: obsByShard[0]}, 2)
	_, tsB := shardServer(t, service.Options{Obs: obsByShard[1]}, 2)
	shards := [][]string{{tsA.URL}, {tsB.URL}}
	gwObs := obs.NewRegistry()
	_, gwRun := gatewayServer(t, Options{Shards: shards})
	_, gwHit := gatewayServer(t, Options{Shards: shards, Obs: gwObs})
	granted := func() (n uint64) {
		for _, o := range obsByShard {
			n += o.Counter("service_chunks_granted_total", "").Value()
		}
		return n
	}
	hits := func(shard int, index string) uint64 {
		return obsByShard[shard].CounterVec("service_cache_hits_total", "", "index").With(index).Value()
	}

	request := func(seed uint64, relErr float64) service.JobRequest {
		return service.JobRequest{Spec: slabSpec(4), ChunkPhotons: 200, Seed: seed,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: relErr}}
	}
	keys := func(req service.JobRequest) (key, pkey service.Key) {
		spec := service.JobSpec{Spec: req.Spec, ChunkPhotons: req.ChunkPhotons, Seed: req.Seed, Target: req.Target}
		key, pkey, err := service.RoutingKeys(&spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return key, pkey
	}
	// A seed whose looser target's content key names the other shard than
	// both keys of the tight run: routed by content key, the looser one
	// would miss the run wherever the run was routed.
	var tight, loose service.JobRequest
	var owner int
	for seed := uint64(1); ; seed++ {
		tight, loose = request(seed, 0.05), request(seed, 0.3)
		tkey, pkey := keys(tight)
		lkey, _ := keys(loose)
		owner = service.ShardOfKey(pkey, 2)
		if service.ShardOfKey(tkey, 2) == owner && service.ShardOfKey(lkey, 2) != owner {
			break
		}
	}

	accTight := submitJob(t, gwRun.URL, "", tight)
	waitDone(t, gwRun.URL, accTight.ID)
	code, raw := get(t, gwRun.URL+"/jobs/"+accTight.ID+"/result")
	var original service.JobResultBody
	if err := json.Unmarshal([]byte(raw), &original); code != http.StatusOK || err != nil {
		t.Fatalf("result of %s: http %d, %v", accTight.ID, code, err)
	}
	before := granted()
	if before == 0 {
		t.Fatal("the tight run finished without a chunk granted")
	}

	looser := submitJob(t, gwHit.URL, "", loose)
	exact := submitJob(t, gwHit.URL, "", tight)
	if !looser.Cached || looser.State != service.StateDone.String() || looser.ID != accTight.ID {
		t.Fatalf("looser target answered %+v, want the run %s itself, cached", looser, accTight.ID)
	}
	if id, _ := strconv.ParseUint(looser.ID, 16, 64); service.ShardOfID(id, 2) != owner {
		t.Fatalf("hit %s names shard %d, want the run's shard %d", looser.ID, service.ShardOfID(id, 2), owner)
	}
	if !exact.Cached || exact.ID != accTight.ID {
		t.Fatalf("exact repeat answered %+v, want the run %s itself", exact, accTight.ID)
	}
	if hits(owner, "physics") != 1 || hits(owner, "exact") != 1 || hits(1-owner, "physics")+hits(1-owner, "exact") != 0 {
		t.Fatalf("shard hits: owner exact %d physics %d, other %d/%d; want 1 and 1 on the owner only",
			hits(owner, "exact"), hits(owner, "physics"), hits(1-owner, "exact"), hits(1-owner, "physics"))
	}
	var metrics strings.Builder
	gwObs.WriteText(&metrics)
	if strings.Contains(metrics.String(), "gateway_cache") {
		t.Fatal("the gateway exports a cache series; it holds no results")
	}

	for _, gw := range []*httptest.Server{gwHit, gwRun} {
		base := gw.URL + "/jobs/" + accTight.ID
		var st service.JobStatus
		if code, raw := get(t, base); code != http.StatusOK || json.Unmarshal([]byte(raw), &st) != nil ||
			st.State != service.StateDone.String() || st.IDHex != accTight.ID {
			t.Fatalf("status of run %s: http %d %s", accTight.ID, code, raw)
		}
		var res service.JobResultBody
		code, raw := get(t, base+"/result")
		if err := json.Unmarshal([]byte(raw), &res); code != http.StatusOK || err != nil {
			t.Fatalf("result of run %s: http %d, %v", accTight.ID, code, err)
		}
		want, _ := json.Marshal(original.Tally)
		if got, _ := json.Marshal(res.Tally); res.ID != accTight.ID || string(got) != string(want) || !loose.Target.MetBy(res.Tally) {
			t.Fatalf("run %s does not carry its tally, or the tally misses the looser target", accTight.ID)
		}
		// The run's own ring holds both hits; no chunk ran for either.
		if code, raw := get(t, base+"/events"); code != http.StatusOK ||
			!strings.Contains(raw, `"detail":"exact"`) || !strings.Contains(raw, `"detail":"physics"`) {
			t.Fatalf("events of run %s: http %d %.600s", accTight.ID, code, raw)
		}
		req, _ := http.NewRequest(http.MethodDelete, base, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("DELETE of hit %s: http %d, want 409", looser.ID, resp.StatusCode)
		}
	}
	if after := granted(); after != before {
		t.Fatalf("the hits had %d chunks granted", after-before)
	}
}

// TestGatewaySharedTierServesShardless pins that a gateway holds no result
// to serve: a repeat is answered by its owning shard, so with the shards
// down it is a 502 like any submission, and no ID is handed out for a job
// nothing holds.
func TestGatewaySharedTierServesShardless(t *testing.T) {
	noTierServesShardless(t, false)
}

// TestGatewayTierFillsThroughAnyGateway is the same with two gateways over
// the shards: the submissions are routed by one and the results fetched
// through the other, which never saw the POSTs — the fetch fills nothing
// there, and the repeats it routes are the shards' hits.
func TestGatewayTierFillsThroughAnyGateway(t *testing.T) {
	noTierServesShardless(t, true)
}

func noTierServesShardless(t *testing.T, submitElsewhere bool) {
	obsByShard := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	_, tsA := shardServer(t, service.Options{Obs: obsByShard[0]}, 2)
	_, tsB := shardServer(t, service.Options{Obs: obsByShard[1]}, 2)
	shards := [][]string{{tsA.URL}, {tsB.URL}}
	oreg := obs.NewRegistry()
	_, gw := gatewayServer(t, Options{Shards: shards, Obs: oreg})
	submitGW := gw
	if submitElsewhere {
		_, submitGW = gatewayServer(t, Options{Shards: shards})
	}
	shardHits := func(index string) (n uint64) {
		for _, o := range obsByShard {
			n += o.CounterVec("service_cache_hits_total", "", "index").With(index).Value()
		}
		return n
	}

	fixed := service.JobRequest{Spec: slabSpec(4), Photons: 300, ChunkPhotons: 100, Seed: 3}
	tight := service.JobRequest{
		Spec: slabSpec(4), ChunkPhotons: 200, Seed: 3,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05},
	}
	accFixed := submitJob(t, submitGW.URL, "", fixed)
	accTight := submitJob(t, submitGW.URL, "", tight)
	waitDone(t, gw.URL, accFixed.ID)
	waitDone(t, gw.URL, accTight.ID)
	// Results flow through the gateway once; it keeps none of them.
	for _, id := range []string{accFixed.ID, accTight.ID} {
		if code, _ := get(t, gw.URL+"/jobs/"+id+"/result"); code != http.StatusOK {
			t.Fatalf("result of %s: %d", id, code)
		}
	}
	var metrics strings.Builder
	oreg.WriteText(&metrics)
	if strings.Contains(metrics.String(), "gateway_cache") {
		t.Fatal("the gateway exports a cache series; it holds no results")
	}
	// With the shards up the owning shard answers, whichever gateway routed
	// the job, and counts the hit itself.
	if hit := submitJob(t, gw.URL, "", fixed); !hit.Cached {
		t.Fatalf("resubmission with shards up: %+v, want a cache hit", hit)
	}
	if n := shardHits("exact"); n != 1 {
		t.Fatalf("the shards counted %d exact hits, want 1", n)
	}

	tsA.Close()
	tsB.Close()

	// Without a shard to answer, neither an exact repeat, nor a looser
	// target, nor a fresh spec is accepted, and none is given an ID.
	loose := tight
	loose.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.2}
	for name, req := range map[string]service.JobRequest{
		"exact repeat":  fixed,
		"looser target": loose,
		"fresh spec":    {Spec: slabSpec(11), Photons: 100, ChunkPhotons: 100, Seed: 9},
	} {
		body, _ := json.Marshal(req)
		resp, raw := post(t, gw.URL+"/jobs", "", body)
		if resp.StatusCode != http.StatusBadGateway || strings.Contains(raw, `"id"`) {
			t.Fatalf("%s with shards down: http %d: %s (want a 502 naming no job)", name, resp.StatusCode, raw)
		}
	}
}

// TestGatewayFailoverPolicy pins the retry matrix with scripted replicas:
// connection errors and 503s walk to the next replica; 4xx answers are
// the shard's verdict and are never retried elsewhere.
func TestGatewayFailoverPolicy(t *testing.T) {
	accept := func() string {
		b, _ := json.Marshal(service.JobAccepted{ID: "00000000000000ab", State: "queued"})
		return string(b)
	}
	valid, _ := json.Marshal(service.JobRequest{
		Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: 1,
	})

	t.Run("connection error fails over", func(t *testing.T) {
		var liveHits int
		live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			liveHits++
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, accept())
		}))
		defer live.Close()
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close() // nothing listens here any more
		_, gw := gatewayServer(t, Options{Shards: [][]string{{dead.URL, live.URL}}})
		resp, raw := post(t, gw.URL+"/jobs", "", valid)
		if resp.StatusCode != http.StatusCreated || liveHits != 1 {
			t.Fatalf("failover POST: http %d (live hits %d): %s", resp.StatusCode, liveHits, raw)
		}
	})

	t.Run("503 fails over, 4xx does not", func(t *testing.T) {
		var fallbackHits int
		flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"spec build failed"}`)
				return
			}
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"tenant rate"}`)
		}))
		defer flaky.Close()
		fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fallbackHits++
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, accept())
		}))
		defer fallback.Close()
		_, gw := gatewayServer(t, Options{Shards: [][]string{{flaky.URL, fallback.URL}}})
		// POST: first replica 503s, the fallback accepts.
		resp, raw := post(t, gw.URL+"/jobs", "", valid)
		if resp.StatusCode != http.StatusCreated || fallbackHits != 1 {
			t.Fatalf("503 failover: http %d (fallback hits %d): %s", resp.StatusCode, fallbackHits, raw)
		}
		// GET: first replica answers 429 — a verdict, passed through with
		// its Retry-After, and the fallback must not be consulted.
		before := fallbackHits
		req, _ := http.NewRequest(http.MethodGet, gw.URL+"/jobs/00000000000000ab", nil)
		r2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusTooManyRequests || r2.Header.Get("Retry-After") != "7" {
			t.Fatalf("4xx passthrough: http %d Retry-After %q", r2.StatusCode, r2.Header.Get("Retry-After"))
		}
		if fallbackHits != before {
			t.Fatalf("gateway retried a 4xx on the fallback replica")
		}
	})

	t.Run("result: 503 fails over, other answers pass through, a stray 200 is a 502", func(t *testing.T) {
		compact := service.AppendResult(nil, &service.JobResultBody{ID: "00000000000000ab", Tally: &mc.Tally{Launched: 7}})
		var fallbackHits int
		answer := http.StatusServiceUnavailable
		first := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Accept") != service.ResultCompactType {
				t.Errorf("result request carries Accept %q", r.Header.Get("Accept"))
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(answer)
			fmt.Fprint(w, `{"error":"shard says","state":"running"}`)
		}))
		defer first.Close()
		fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fallbackHits++
			service.WriteBody(w, http.StatusOK, service.ResultCompactType, compact)
		}))
		defer fallback.Close()
		_, gw := gatewayServer(t, Options{Shards: [][]string{{first.URL, fallback.URL}}})
		url := gw.URL + "/jobs/00000000000000ab/result"

		code, raw := get(t, url)
		var res service.JobResultBody
		if err := json.Unmarshal([]byte(raw), &res); code != http.StatusOK || err != nil ||
			fallbackHits != 1 || res.Tally == nil || res.Tally.Launched != 7 {
			t.Fatalf("503 failover: http %d (fallback hits %d, err %v): %s", code, fallbackHits, err, raw)
		}
		for _, answer = range []int{http.StatusAccepted, http.StatusNotFound, http.StatusGone} {
			if code, raw := get(t, url); code != answer || !strings.Contains(raw, "shard says") || fallbackHits != 1 {
				t.Fatalf("shard's %d came back as http %d (fallback hits %d): %s", answer, code, fallbackHits, raw)
			}
		}
		// A 200 that is not the negotiated encoding: the tree ships
		// together, so this is a broken shard, not an old one.
		answer = http.StatusOK
		if code, raw := get(t, url); code != http.StatusBadGateway {
			t.Fatalf("JSON 200 from a shard: http %d: %s (want 502)", code, raw)
		}
	})

	t.Run("malformed never routed", func(t *testing.T) {
		var hits int
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits++
			w.WriteHeader(http.StatusCreated)
		}))
		defer shard.Close()
		_, gw := gatewayServer(t, Options{Shards: [][]string{{shard.URL}}})
		bad, _ := json.Marshal(service.JobRequest{Spec: slabSpec(5)}) // no photons, no target
		resp, raw := post(t, gw.URL+"/jobs", "", bad)
		if resp.StatusCode != http.StatusUnprocessableEntity || hits != 0 {
			t.Fatalf("malformed job: http %d (shard hits %d): %s", resp.StatusCode, hits, raw)
		}
		// A scoring grid no shard or worker could allocate is refused here,
		// naming the limit, before any of them sees it.
		huge := slabSpec(5)
		huge.PathGrid = &mc.GridSpec{N: 100000, Edge: 10}
		bad, _ = json.Marshal(service.JobRequest{Spec: huge, Photons: 100})
		resp, raw = post(t, gw.URL+"/jobs", "", bad)
		if resp.StatusCode != http.StatusUnprocessableEntity || hits != 0 ||
			!strings.Contains(raw, fmt.Sprint(mc.MaxGridN)) {
			t.Fatalf("over-bound grid: http %d (shard hits %d): %s", resp.StatusCode, hits, raw)
		}
	})
}

// TestGatewayTenantFairnessAcrossShards is the two-tenant e2e through
// the gateway: admission runs at the routing tier over AlwaysAdmit
// shards, flood's burst sheds at the gateway with Retry-After, alice is
// untouched, and /tenants //stats roll the per-shard accounting up with
// the gateway's authoritative bucket levels.
func TestGatewayTenantFairnessAcrossShards(t *testing.T) {
	table := &service.TenantTable{Tenants: map[string]service.TenantClass{
		"flood": {JobsPerSec: 0.001, JobBurst: 1},
		"alice": {Weight: 3},
	}}
	regA, tsA := shardServer(t, service.Options{Tenants: table, Policy: service.TenantFairShare()}, 2)
	regB, tsB := shardServer(t, service.Options{Tenants: table, Policy: service.TenantFairShare()}, 2)
	oreg := obs.NewRegistry()
	_, gw := gatewayServer(t, Options{
		Shards:    [][]string{{tsA.URL}, {tsB.URL}},
		Admission: service.NewTokenBucket(table, nil),
		Obs:       oreg,
	})

	// Find seeds owned by each shard, so the fairness story provably
	// crosses the shard boundary.
	seedFor := func(shard int) uint64 {
		for seed := uint64(1); ; seed++ {
			spec := service.JobSpec{Spec: slabSpec(6), TotalPhotons: 300, ChunkPhotons: 100, Seed: seed}
			key, _, err := service.RoutingKeys(&spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if service.ShardOfKey(key, 2) == shard {
				return seed
			}
		}
	}
	floodAcc := submitJob(t, gw.URL, "flood", service.JobRequest{
		Spec: slabSpec(6), Photons: 300, ChunkPhotons: 100, Seed: seedFor(0),
	})
	aliceAcc := submitJob(t, gw.URL, "alice", service.JobRequest{
		Spec: slabSpec(6), Photons: 300, ChunkPhotons: 100, Seed: seedFor(1),
	})

	// Flood's second distinct job sheds at the gateway: no shard sees it.
	beforeA, beforeB := regA.Stats().JobsSubmitted, regB.Stats().JobsSubmitted
	body, _ := json.Marshal(service.JobRequest{
		Spec: slabSpec(9), Photons: 300, ChunkPhotons: 100, Seed: 77,
	})
	resp, raw := post(t, gw.URL+"/jobs", "flood", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood's second job: http %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("gateway shed carries no Retry-After")
	}
	if a, b := regA.Stats().JobsSubmitted, regB.Stats().JobsSubmitted; a != beforeA || b != beforeB {
		t.Fatalf("shed submission reached a shard: %d/%d -> %d/%d", beforeA, beforeB, a, b)
	}

	waitDone(t, gw.URL, floodAcc.ID)
	waitDone(t, gw.URL, aliceAcc.ID)

	// Cross-shard rollup: each tenant ran on a different shard, and the
	// gateway's /tenants merges them with its own bucket levels on top.
	code, tenRaw := get(t, gw.URL+"/tenants")
	if code != http.StatusOK {
		t.Fatalf("GET /tenants: %d", code)
	}
	var tens service.TenantsBody
	if err := json.Unmarshal([]byte(tenRaw), &tens); err != nil {
		t.Fatal(err)
	}
	if tens.Admission != "token-bucket" {
		t.Fatalf("gateway admission name %q", tens.Admission)
	}
	var flood, alice *service.TenantStatus
	for i := range tens.Tenants {
		switch tens.Tenants[i].Name {
		case "flood":
			flood = &tens.Tenants[i]
		case "alice":
			alice = &tens.Tenants[i]
		}
	}
	if flood == nil || alice == nil {
		t.Fatalf("rollup missing tenants: %s", tenRaw)
	}
	if flood.Submitted != 1 || flood.Photons != 300 {
		t.Fatalf("flood rollup %+v", flood)
	}
	if alice.Submitted != 1 || alice.Weight != 3 {
		t.Fatalf("alice rollup %+v", alice)
	}
	if flood.JobTokens == nil || *flood.JobTokens >= 1 {
		t.Fatalf("gateway bucket levels not overlaid: %+v", flood)
	}
	// The shard-side shed counters stayed untouched — the gateway shed it.
	code, stRaw := get(t, gw.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	var st statsBody
	if err := json.Unmarshal([]byte(stRaw), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenants["flood"].Shed != 0 {
		t.Fatalf("shard-side shed %d, want 0 (gateway owns admission)", st.Tenants["flood"].Shed)
	}
}

// TestGatewayShedsBeforeItHashes: a tenant whose job-rate bucket is empty
// is refused before the gateway derives keys for what it sent — the keys
// stage histogram does not advance on the 429 — while a malformed body from
// the same drained tenant is still a 422, and a tenant with tokens is keyed
// and forwarded as before.
func TestGatewayShedsBeforeItHashes(t *testing.T) {
	table := &service.TenantTable{Tenants: map[string]service.TenantClass{
		"flood": {JobsPerSec: 0.001, JobBurst: 1},
	}}
	_, ts := shardServer(t, service.Options{}, 1)
	oreg := obs.NewRegistry()
	_, gw := gatewayServer(t, Options{
		Shards:    [][]string{{ts.URL}},
		Admission: service.NewTokenBucket(table, nil),
		Obs:       oreg,
	})
	stage := func(name string) uint64 {
		return oreg.HistogramVec("gateway_submit_stage_seconds", "", obs.DefBuckets, "stage").With(name).Count()
	}
	vox := voxel.New("phantom", 30, 30, 10, 1, 1, 0.5, "phantom",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	voxReq := func(seed uint64) []byte {
		body, err := json.Marshal(service.JobRequest{
			Spec: mc.NewVoxelSpec(vox, source.Spec{Kind: source.KindPencil},
				detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}),
			Photons: 200, ChunkPhotons: 100, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// The burst of one pays for the first job, which is keyed and forwarded.
	if resp, raw := post(t, gw.URL+"/jobs", "flood", voxReq(1)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job: http %d: %s", resp.StatusCode, raw)
	}
	if d, k, f := stage("decode"), stage("keys"), stage("forward"); d != 1 || k != 1 || f != 1 {
		t.Fatalf("one forwarded submission counted decode %d, keys %d, forward %d", d, k, f)
	}

	resp, raw := post(t, gw.URL+"/jobs", "flood", voxReq(2))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drained tenant's job: http %d (Retry-After %q): %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), raw)
	}
	// A byte-identical resubmission would have been a coalesce or a hit:
	// it costs a job token too, so it is shed the same way, unkeyed.
	if resp, raw := post(t, gw.URL+"/jobs", "flood", voxReq(1)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained tenant's resubmission: http %d: %s", resp.StatusCode, raw)
	}
	if d, k := stage("decode"), stage("keys"); d != 3 || k != 1 {
		t.Fatalf("after two sheds: decode %d (want 3), keys %d (want 1: a shed body is not hashed)", d, k)
	}

	invalid, _ := json.Marshal(service.JobRequest{Spec: slabSpec(5), ChunkPhotons: 100, Seed: 3})
	if resp, raw := post(t, gw.URL+"/jobs", "flood", invalid); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("drained tenant's malformed job: http %d: %s (a 422 wins over a 429)", resp.StatusCode, raw)
	}
	if resp, raw := post(t, gw.URL+"/jobs", "other", voxReq(2)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("another tenant's job: http %d: %s", resp.StatusCode, raw)
	}
	if k := stage("keys"); k != 2 {
		t.Fatalf("keys stage counted %d submissions, want 2", k)
	}
}

// TestGatewayAdmitsAnUnnamedTenantAsTheDefault: a submission that names no
// tenant is admitted under the default tenant at the gateway, as a shard
// admits it — the class the table gives "default" is the one that sheds —
// and the gateway's /tenants holds the bucket levels under that name, not
// under a nameless tenant.
func TestGatewayAdmitsAnUnnamedTenantAsTheDefault(t *testing.T) {
	table := &service.TenantTable{Tenants: map[string]service.TenantClass{
		service.DefaultTenant: {JobsPerSec: 0.001, JobBurst: 1},
	}}
	_, direct := shardServer(t, service.Options{Admission: service.NewTokenBucket(table, nil), Tenants: table}, 0)
	_, ts := shardServer(t, service.Options{}, 0)
	_, gw := gatewayServer(t, Options{Shards: [][]string{{ts.URL}}, Admission: service.NewTokenBucket(table, nil)})

	for tier, base := range map[string]string{"shard": direct.URL, "gateway": gw.URL} {
		for seed, want := range []int{http.StatusCreated, http.StatusTooManyRequests} {
			body, _ := json.Marshal(service.JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: uint64(seed + 1)})
			if resp, raw := post(t, base+"/jobs", "", body); resp.StatusCode != want {
				t.Fatalf("unattributed submission %d at the %s: http %d %s, want %d", seed+1, tier, resp.StatusCode, raw, want)
			}
		}
	}
	code, raw := get(t, gw.URL+"/tenants")
	var tens service.TenantsBody
	if err := json.Unmarshal([]byte(raw), &tens); code != http.StatusOK || err != nil {
		t.Fatalf("GET /tenants: http %d, %v", code, err)
	}
	for _, ten := range tens.Tenants {
		switch ten.Name {
		case "":
			t.Fatalf("the gateway lists a nameless tenant: %s", raw)
		case service.DefaultTenant:
			if ten.JobTokens == nil || *ten.JobTokens >= 1 || ten.Submitted != 1 {
				t.Fatalf("default tenant %+v, want its drained bucket and one job", ten)
			}
			return
		}
	}
	t.Fatalf("no default tenant in %s", raw)
}

// TestSubmissionMintsTheSameIDAtEitherTier: one voxel body POSTed straight
// to a shard as JSON, and the same body POSTed to a gateway that forwards it
// to another shard in the compact form, mint the same job ID — the shard
// derives the keys itself from what the hop carried, and the hop carried
// the same job. Both tenants arrive: header over body at the gateway, and
// in the forwarded spec at the shard.
func TestSubmissionMintsTheSameIDAtEitherTier(t *testing.T) {
	_, direct := shardServer(t, service.Options{}, 0)
	shardObs, gwObs := obs.NewRegistry(), obs.NewRegistry()
	behind, ts := shardServer(t, service.Options{Obs: shardObs}, 0)
	_, gw := gatewayServer(t, Options{Shards: [][]string{{ts.URL}}, Obs: gwObs})

	vox := voxel.New("phantom", 30, 30, 10, 1, 1, 0.5, "phantom",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	vox.Labels[vox.Index(3, 4, 5)] = 0
	req := service.JobRequest{
		Spec: mc.NewVoxelSpec(vox, source.Spec{Kind: source.KindPencil},
			detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4}),
		Photons: 200, ChunkPhotons: 100, Seed: 11, Label: "same", Tenant: "body-tenant",
	}
	atShard := submitJob(t, direct.URL, "lab-a", req)
	viaGateway := submitJob(t, gw.URL, "lab-a", req)
	if atShard.ID != viaGateway.ID {
		t.Fatalf("the same body minted %s at a shard and %s through a gateway", atShard.ID, viaGateway.ID)
	}
	sizes := shardObs.HistogramVec("service_submit_bytes", "", obs.ByteBuckets, "format")
	if c, j := sizes.With("compact").Count(), sizes.With("json").Count(); c != 1 || j != 0 {
		t.Fatalf("shard behind the gateway read %d compact and %d JSON bodies, want 1 and 0", c, j)
	}
	body, _ := json.Marshal(req)
	if got := sizes.With("compact").Sum(); got >= float64(len(body))*0.8 || got <= float64(len(vox.Labels)) {
		t.Fatalf("forwarded body was %v bytes: want the %d labels raw plus a header, well under the %d-byte JSON",
			got, len(vox.Labels), len(body))
	}
	if n := gwObs.HistogramVec("gateway_submit_stage_seconds", "", obs.DefBuckets, "stage").With("encode").Count(); n != 1 {
		t.Fatalf("gateway encode stage counted %d submissions, want 1", n)
	}
	var st service.JobStatus
	if code, raw := get(t, gw.URL+"/jobs/"+viaGateway.ID); code != http.StatusOK || json.Unmarshal([]byte(raw), &st) != nil {
		t.Fatalf("status through the gateway: http %d: %s", code, raw)
	}
	if st.Tenant != "lab-a" || st.Label != "same" {
		t.Fatalf("forwarded job is tenant %q label %q, want lab-a / same", st.Tenant, st.Label)
	}
	if id, err := strconv.ParseUint(viaGateway.ID, 16, 64); err != nil || behind.Get(id) == nil {
		t.Fatalf("the shard behind the gateway does not hold job %s (%v)", viaGateway.ID, err)
	}
}

// TestSubmitEdgeSameAtBothTiers: the client edge answers a hostile body the
// same whichever tier reads it, now that both decode the stream instead of
// a buffered copy — over the cap 413, not JSON 400, an unknown field 400 —
// and nothing refused at a gateway reaches its shard.
func TestSubmitEdgeSameAtBothTiers(t *testing.T) {
	api := service.NewAPI(service.New(service.Options{}))
	api.MaxBodyBytes = 2048
	direct := httptest.NewServer(api.Handler())
	defer direct.Close()
	forwarded := 0
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		forwarded++
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shard.Close()
	_, gw := gatewayServer(t, Options{Shards: [][]string{{shard.URL}}, MaxBodyBytes: 2048})

	valid, _ := json.Marshal(service.JobRequest{Spec: slabSpec(5), Photons: 100, ChunkPhotons: 100, Seed: 1})
	for name, c := range map[string]struct {
		body []byte
		code int
		says string
	}{
		"oversized":     {[]byte(`{"label":"` + strings.Repeat("a", 4096) + `"}`), http.StatusRequestEntityTooLarge, "2048"},
		"not JSON":      {[]byte(`{"spec":`), http.StatusBadRequest, "bad request body"},
		"empty":         {nil, http.StatusBadRequest, "bad request body"},
		"unknown field": {[]byte(strings.Replace(string(valid), `"photons"`, `"photonz"`, 1)), http.StatusBadRequest, "photonz"},
	} {
		for tier, base := range map[string]string{"shard": direct.URL, "gateway": gw.URL} {
			resp, raw := post(t, base+"/jobs", "", c.body)
			if resp.StatusCode != c.code || !strings.Contains(raw, c.says) {
				t.Errorf("%s body at the %s: http %d %s, want %d naming %q", name, tier, resp.StatusCode, raw, c.code, c.says)
			}
		}
	}
	if forwarded != 0 {
		t.Fatalf("%d refused bodies were forwarded to the shard", forwarded)
	}
	if resp, raw := post(t, direct.URL+"/jobs", "", valid); resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid body under the cap: http %d: %s", resp.StatusCode, raw)
	}
}

// TestFanOutStopsWhenTheCallerHangsUp: the read-only fan-out routes run
// under the inbound request's context. A shard that never answers holds the
// handler only until the caller goes away — not for the client's 30 s
// timeout — and the shards behind it are not asked at all.
func TestFanOutStopsWhenTheCallerHangsUp(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-r.Context().Done(): // the gateway let the request go
		case <-release:
		}
	}))
	defer stuck.Close()
	defer close(release) // registered after stuck.Close, so it runs first
	var laterAsked atomic.Int32
	later := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		laterAsked.Add(1)
		fmt.Fprint(w, "{}")
	}))
	defer later.Close()
	g, err := New(Options{Shards: [][]string{{stuck.URL}, {later.URL}}})
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/stats", "/fleet", "/tenants", "/jobs"} {
		ctx, hangUp := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
			g.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
		<-entered
		hangUp()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s still walking the shards 5 s after its caller hung up", path)
		}
	}
	if n := laterAsked.Load(); n != 0 {
		t.Fatalf("the shard behind the stuck one was asked %d times for callers that had gone", n)
	}
}
