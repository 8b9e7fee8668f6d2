// Package workload generates the benchmark's inputs: for a workload name, a
// seed and a length in seconds it returns the warm-up and the timed
// schedule — due times, request bodies, and the outcome each request must
// have. The same arguments always give the same bytes; the programs under
// test only ever see the bodies.
//
// Randomness is spent where the system's behaviour depends on it (arrival
// instants, job seeds, the order of the mix) and not where it would only
// add run-to-run noise: an open-loop schedule holds exactly rate×seconds
// arrivals placed as sorted uniforms (a Poisson process conditioned on its
// count), and the tenant-mix classes are a shuffled deck with exact
// proportions, so hit ratios are counts the generator knows in advance.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// Workload names. Later issues cite them; do not rename.
const (
	BulkHead    = "bulk-head"
	SmallFresh  = "small-fresh"
	GridResults = "grid-results"
	TenantMix   = "tenant-mix"
)

// Names lists the workloads in the order the suite runs them.
var Names = []string{BulkHead, SmallFresh, GridResults, TenantMix}

// Shards is the number of mcqueue shards every workload runs against.
const Shards = 2

// Calibration constants, measured once on the seed commit (bench/README.md
// has the record) and frozen: each makes the timed part last about as long
// as the -seconds argument on that commit. Work scales with -seconds, so a
// run of any length does a fixed amount of work per second asked for.
const (
	// bulk-head: bulkJobs jobs share bulkPhotonsPerSec×seconds photons.
	bulkJobs          = 8
	bulkPhotonsPerSec = 23460 // 102 chunks of 230 per second over both workers
	// ChunkPhotons is the paper's self-scheduling grain.
	ChunkPhotons = 230
	// small-fresh: open-loop arrivals per second.
	smallRate = 60
	// grid-results: closed-loop jobs per second of run length.
	gridJobsPerSec = 7.0
	gridPhotons    = 10 * ChunkPhotons
	// tenant-mix: open-loop submissions per second.
	mixRate = 80
	// mixBase is the size of the pre-completed base set repeats draw from.
	mixBase = 64
)

// Latency limits of within_limit_share, in milliseconds. bulk-head's limit
// is set in bulkHead: it scales with the run length because its jobs do.
const (
	smallLimitMS = 150
	mixLimitMS   = 150
	gridLimitMS  = 1500
)

// Class says what a request is for; the expectation follows from it.
type Class string

const (
	ClassBulk    Class = "bulk"    // large fixed-count head job
	ClassFresh   Class = "fresh"   // never-seen job, must run
	ClassGrid    Class = "grid"    // head job with a path grid
	ClassRepeat  Class = "repeat"  // byte-identical resubmission of a base job
	ClassLooser  Class = "looser"  // precision target a base job already meets
	ClassDup     Class = "dup"     // identical to the in-flight job sent just before
	ClassInvalid Class = "invalid" // malformed, must be refused with 422
)

// Geometry names which kernel path a job takes.
const (
	GeomSlab  = "slab"
	GeomHead  = "head"
	GeomVoxel = "voxel"
)

// Op is one request of a schedule.
type Op struct {
	Seq int
	// Due is the offset from the start of the timed part at which the
	// request is due. Closed-loop ops carry zero: they are due when a slot
	// frees.
	Due      time.Duration
	Class    Class
	Tenant   string // X-MC-Tenant header; empty for single-tenant workloads
	Geometry string // empty for invalid requests
	Body     []byte
	// Photons the result must report as launched (0: the job is refused).
	Photons int64
	// Shard that owns the job's content key (-1: the request has no key).
	Shard int
	// Base indexes the warm-up op whose tally this op's answer must equal
	// byte for byte (-1: none). For a ClassDup op Orig does the same
	// against the timed op it duplicates.
	Base int
	Orig int
	// Status is the POST /jobs code a correct system answers with. MayShed
	// additionally allows a 429 carrying Retry-After: the op belongs to the
	// tenant that offers twice its quota.
	Status    int
	Cached    bool
	Coalesced bool
	MayShed   bool
	// Req is the decoded body, kept for in-process recomputation.
	Req *service.JobRequest `json:"-"`
}

// Workload is one generated run: how to configure the tree, what to send
// while warming up, and the timed schedule.
type Workload struct {
	Name string
	Seed uint64
	// Closed says the timed part is a closed loop of Outstanding jobs;
	// otherwise it is an open loop at Rate submissions per second.
	Closed      bool
	Outstanding int
	Rate        float64
	Seconds     float64
	// LimitMS is the fixed submit→result limit of within_limit_share.
	LimitMS float64
	// GateFlags and QueueFlags are the extra daemon flags this workload's
	// deployment needs; TenantsJSON, when set, is the tenant table mcgate
	// admits by.
	GateFlags   []string
	QueueFlags  []string
	TenantsJSON []byte
	// GreedyRate is the jobs/s bucket of the over-quota tenant (0: none).
	GreedyRate float64
	// WarmUp is sent as a closed loop of WarmOutstanding jobs before
	// anything is timed; Idle are tiny jobs a traced run sends one at a
	// time after it, whose latency is the fleet's idle floor.
	WarmUp          []Op
	WarmOutstanding int
	Idle            []Op
	Timed           []Op
	// RecomputeWarmUp says the output check recomputes the warm-up jobs in
	// process rather than a sample of the timed ones.
	RecomputeWarmUp bool
}

// Why explains, in one line each, why the workload exists.
var Why = map[string]string{
	BulkHead:    "The paper's experiment: eight large head jobs, layered and voxel, in 230-photon chunks; the kernel does almost all the work",
	SmallFresh:  "Open loop of distinct 16-photon jobs: ingress, gateway hop, keys, journal, scheduling and the idle poll are the whole latency; the cache only takes writes",
	GridResults: "Closed loop of head jobs with a 50-cubed path grid: codec, merges, snapshot records and 425 KB JSON results through the gateway dominate",
	TenantMix:   "Open loop of repeats, looser targets, duplicates, invalid and over-quota requests from three tenants: caches as reads, admission and the two-level scheduler decide",
}

// Generate builds the named workload. pass distinguishes several timed
// schedules run against one tree (the traced run makes two): job seeds of
// different passes never collide, the warm-up is the same.
func Generate(name string, seed uint64, seconds float64, pass int) (*Workload, error) {
	return generate(name, seed, seconds, pass, smallRate)
}

// Ladder returns small-fresh at another arrival rate: one step of the
// rate ladder the traced run walks. Steps use passes of their own, so
// their jobs are distinct from every other pass's.
func Ladder(seed uint64, seconds, rate float64, step int) (*Workload, error) {
	return generate(SmallFresh, seed, seconds, 16+step, rate)
}

func generate(name string, seed uint64, seconds float64, pass int, rate float64) (*Workload, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("workload: non-positive length %g s", seconds)
	}
	g := &gen{
		w:    &Workload{Name: name, Seed: seed, Seconds: seconds},
		warm: rand.New(rand.NewPCG(seed, 0x6d636c6f6164)), // "mcload"
		rng:  rand.New(rand.NewPCG(seed, 0x6d636c6f6164+1+uint64(pass))),
		rate: rate,
	}
	var err error
	switch name {
	case BulkHead:
		err = g.bulkHead()
	case SmallFresh:
		err = g.smallFresh()
	case GridResults:
		err = g.gridResults()
	case TenantMix:
		err = g.tenantMix()
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names)
	}
	g.next = nil
	for i := 0; i < 5 && err == nil; i++ {
		var idle Op
		if idle, err = g.op(g.warm, ClassFresh, GeomSlab, slabReq(16, 1)); err == nil {
			if name == TenantMix {
				idle.Tenant = TenantAlpha
			}
			g.w.Idle = append(g.w.Idle, idle)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	for i := range g.w.WarmUp {
		g.w.WarmUp[i].Seq = i
	}
	for i := range g.w.Timed {
		g.w.Timed[i].Seq = i
	}
	return g.w, nil
}

type gen struct {
	w *Workload
	// warm feeds the warm-up and rng the timed part, so a second pass over
	// the same tree repeats the warm-up bytes and changes everything else.
	warm, rng *rand.Rand
	// next[class] counts keyed ops per class so consecutive ones alternate
	// shards: the two shards then own exactly half of each class.
	next map[Class]int
	// rate is small-fresh's arrival rate (the ladder varies it).
	rate float64
}

var (
	pencil   = source.Spec{Kind: source.KindPencil}
	slabSpec = mc.NewSpec(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5), pencil,
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	headDet = detector.Spec{Kind: detector.KindAnnulus, RMin: 10, RMax: 30}
)

// HeadModel is the paper's Table 1 adult head with the semi-infinite white
// matter cut at 44 mm (60 mm in all): encoding/json refuses the +Inf
// thickness of tissue.AdultHead, so the model as published cannot be
// submitted over HTTP.
func HeadModel() *tissue.Model {
	m := tissue.AdultHead()
	m.Layers[len(m.Layers)-1].Thickness = 44
	return m
}

func headSpec() *mc.Spec { return mc.NewSpec(HeadModel(), pencil, headDet) }

// voxelHeadSpec is the same head on a 120×120×80 grid of 0.5 mm voxels:
// every layer boundary falls on a voxel plane, the white matter is cut at
// 40 mm.
func voxelHeadSpec() (*mc.Spec, error) {
	g, err := voxel.FromModel(HeadModel(), 120, 120, 80, 0.5, 0.5, 0.5)
	if err != nil {
		return nil, err
	}
	return mc.NewVoxelSpec(g, pencil, headDet), nil
}

func gridSpec() *mc.Spec {
	s := headSpec()
	s.PathGrid = &mc.GridSpec{N: 50, Edge: 60}
	return s
}

// op builds a keyed op: it draws job seeds until the content key lands on
// the shard this class's alternation asks for.
func (g *gen) op(r *rand.Rand, class Class, geom string, req service.JobRequest) (Op, error) {
	if g.next == nil {
		g.next = make(map[Class]int)
	}
	want := g.next[class] % Shards
	g.next[class]++
	for {
		req.Seed = r.Uint64()
		shard, err := ShardOf(&req)
		if err != nil {
			return Op{}, err
		}
		if shard == want {
			break
		}
	}
	return finish(class, geom, req, want)
}

func finish(class Class, geom string, req service.JobRequest, shard int) (Op, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return Op{}, fmt.Errorf("encode %s request: %w", class, err)
	}
	return Op{
		Class: class, Geometry: geom, Body: body, Photons: req.Photons,
		Shard: shard, Base: -1, Orig: -1, Status: 201, Req: &req,
	}, nil
}

// SpecOf is the submission a request body stands for, as both HTTP tiers
// build it before deriving keys or submitting.
func SpecOf(req *service.JobRequest) service.JobSpec {
	return service.JobSpec{
		Spec: req.Spec, TotalPhotons: req.Photons, ChunkPhotons: req.ChunkPhotons,
		Seed: req.Seed, Fan: req.Fan, Target: req.Target,
	}
}

// ShardOf returns the shard owning a request's content key, derived the way
// the gateway derives it.
func ShardOf(req *service.JobRequest) (int, error) {
	spec := SpecOf(req)
	key, _, err := service.RoutingKeys(&spec, 0)
	if err != nil {
		return 0, err
	}
	return service.ShardOfKey(key, Shards), nil
}

// arrivals returns n due offsets over [0, seconds): sorted uniforms, which
// is how a Poisson process looks once its count is known.
func (g *gen) arrivals(n int, seconds float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(g.rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func slabReq(chunks, photonsPerChunk int64) service.JobRequest {
	return service.JobRequest{Spec: slabSpec, Photons: chunks * photonsPerChunk, ChunkPhotons: photonsPerChunk}
}

func (g *gen) bulkHead() error {
	w := g.w
	w.Closed, w.Outstanding, w.WarmOutstanding = true, 2, 2
	vox, err := voxelHeadSpec()
	if err != nil {
		return err
	}
	head := headSpec()
	per := int64(math.Round(bulkPhotonsPerSec*w.Seconds/bulkJobs/ChunkPhotons)) * ChunkPhotons
	if per < ChunkPhotons {
		per = ChunkPhotons
	}
	// A job takes about a quarter of the run on the seed commit (eight
	// jobs, two at a time); the limit is four times that, because this
	// workload is where a slow spell of the host shows in full.
	w.LimitMS = 1000 * w.Seconds
	// L V V L L V V L over shards 0 1 0 1 …: each shard gets both
	// geometries, and the two jobs in flight are on different shards.
	pick := func(i int) (*mc.Spec, string) {
		if ((i+1)/2)%2 == 1 {
			return vox, GeomVoxel
		}
		return head, GeomHead
	}
	// The warm-up jobs are the timed jobs in small: same specs, same chunk
	// size, five chunks each. They are what the output check recomputes,
	// since recomputing a timed job would cost as much as the run.
	w.RecomputeWarmUp = true
	for i := 0; i < bulkJobs; i++ {
		spec, geom := pick(i)
		op, err := g.op(g.warm, ClassBulk, geom, service.JobRequest{
			Spec: spec, Photons: 5 * ChunkPhotons, ChunkPhotons: ChunkPhotons})
		if err != nil {
			return err
		}
		w.WarmUp = append(w.WarmUp, op)
	}
	g.next = nil
	for i := 0; i < bulkJobs; i++ {
		spec, geom := pick(i)
		op, err := g.op(g.rng, ClassBulk, geom, service.JobRequest{
			Spec: spec, Photons: per, ChunkPhotons: ChunkPhotons})
		if err != nil {
			return err
		}
		w.Timed = append(w.Timed, op)
	}
	return nil
}

func (g *gen) smallFresh() error {
	w := g.w
	w.Rate, w.LimitMS, w.WarmOutstanding = g.rate, smallLimitMS, 8
	for i := 0; i < 32; i++ {
		op, err := g.op(g.warm, ClassFresh, GeomSlab, slabReq(16, 1))
		if err != nil {
			return err
		}
		w.WarmUp = append(w.WarmUp, op)
	}
	g.next = nil
	n := int(math.Round(g.rate * w.Seconds))
	for _, due := range g.arrivals(n, w.Seconds) {
		op, err := g.op(g.rng, ClassFresh, GeomSlab, slabReq(16, 1))
		if err != nil {
			return err
		}
		op.Due = due
		w.Timed = append(w.Timed, op)
	}
	return nil
}

func (g *gen) gridResults() error {
	w := g.w
	w.Closed, w.Outstanding, w.WarmOutstanding, w.LimitMS = true, 2, 2, gridLimitMS
	spec := gridSpec()
	req := service.JobRequest{Spec: spec, Photons: gridPhotons, ChunkPhotons: ChunkPhotons}
	for i := 0; i < 4; i++ {
		op, err := g.op(g.warm, ClassGrid, GeomHead, req)
		if err != nil {
			return err
		}
		w.WarmUp = append(w.WarmUp, op)
	}
	g.next = nil
	n := int(math.Round(gridJobsPerSec * w.Seconds))
	if n < 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		op, err := g.op(g.rng, ClassGrid, GeomHead, req)
		if err != nil {
			return err
		}
		w.Timed = append(w.Timed, op)
	}
	return nil
}

// Tenants of tenant-mix. greedy offers twice its jobs/s bucket; alpha and
// beta stay far inside theirs, so a 429 to either is a failure.
const (
	TenantAlpha  = "alpha"
	TenantBeta   = "beta"
	TenantGreedy = "greedy"
)

// The tenant-mix deck, in percent of submissions. The dup class rides on
// top of fresh: each dup follows a fresh job of alpha or beta.
const (
	pctRepeat  = 40
	pctLooser  = 15
	pctFresh   = 30
	pctDup     = 10
	pctInvalid = 5
)

func (g *gen) tenantMix() error {
	w := g.w
	w.Rate, w.LimitMS, w.WarmOutstanding = mixRate, mixLimitMS, 8
	// The result tiers must hold the base set for the whole run, so that a
	// repeat is a hit by construction and not by winning a race with FIFO
	// eviction; small-fresh is the workload that overflows the caches.
	w.GateFlags = []string{"-cache", "8192"}
	w.QueueFlags = []string{"-cache", "8192", "-policy", "tenant-fair"}

	// Base set: moments-tracking slab jobs, so a looser precision target
	// finds them under the physics key. 32 chunks of 8 photons leave the
	// relative error of the diffuse reflectance far below the 0.9 asked
	// for later, with the 16-chunk photon floor met twice over.
	baseSpec := *slabSpec
	baseSpec.TrackMoments = true
	const baseChunks, baseChunk = 32, 8
	tenants := []string{TenantAlpha, TenantBeta}
	for i := 0; i < mixBase; i++ {
		op, err := g.op(g.warm, ClassFresh, GeomSlab, service.JobRequest{
			Spec: &baseSpec, Photons: baseChunks * baseChunk, ChunkPhotons: baseChunk})
		if err != nil {
			return err
		}
		op.Tenant = tenants[i%2]
		w.WarmUp = append(w.WarmUp, op)
	}
	g.next = nil

	n := int(math.Round(mixRate * w.Seconds))
	nDup := n * pctDup / 100
	counts := map[Class]int{
		ClassRepeat:  n * pctRepeat / 100,
		ClassLooser:  n * pctLooser / 100,
		ClassInvalid: n * pctInvalid / 100,
	}
	counts[ClassFresh] = n - nDup - counts[ClassRepeat] - counts[ClassLooser] - counts[ClassInvalid]
	if counts[ClassFresh] < nDup {
		return fmt.Errorf("run too short for the mix: %d submissions", n)
	}
	// Tenant decks per class: greedy takes a quarter of every class but
	// dup originals, alpha and beta split the rest. A fresh job that a dup
	// follows must be admitted, so those go to alpha and beta only.
	type slot struct {
		class   Class
		tenant  string
		dupOrig bool
	}
	var deck []slot
	greedyValid := 0
	for _, class := range []Class{ClassRepeat, ClassLooser, ClassFresh, ClassInvalid} {
		c := counts[class]
		nGreedy := c / 4
		if class == ClassFresh && c-nGreedy < nDup {
			nGreedy = c - nDup
		}
		for i := 0; i < c; i++ {
			s := slot{class: class}
			switch {
			case i < nGreedy:
				s.tenant = TenantGreedy
				if class != ClassInvalid {
					greedyValid++
				}
			default:
				s.tenant = tenants[i%2]
				s.dupOrig = class == ClassFresh && i-nGreedy < nDup
			}
			deck = append(deck, s)
		}
	}
	g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })

	// The bucket refills at half of what greedy offers. Invalid requests
	// are refused before admission and cost no token.
	w.GreedyRate = float64(greedyValid) / w.Seconds / 2
	table := service.TenantTable{Tenants: map[string]service.TenantClass{
		TenantAlpha:  {JobsPerSec: 4 * mixRate, JobBurst: 4 * mixRate},
		TenantBeta:   {JobsPerSec: 4 * mixRate, JobBurst: 4 * mixRate},
		TenantGreedy: {JobsPerSec: w.GreedyRate, JobBurst: 4},
	}}
	var err error
	if w.TenantsJSON, err = json.Marshal(&table); err != nil {
		return err
	}

	due := g.arrivals(len(deck), w.Seconds)
	nthBase := 0
	for i, s := range deck {
		var op Op
		switch s.class {
		case ClassRepeat:
			bi := nthBase % mixBase
			nthBase++
			op = w.WarmUp[bi]
			op.Class, op.Base, op.Status, op.Cached = ClassRepeat, bi, 200, true
		case ClassLooser:
			bi := nthBase % mixBase
			base := &w.WarmUp[bi]
			nthBase++
			req := *base.Req
			req.Photons = 0
			req.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.9}
			shard, err := ShardOf(&req)
			if err != nil {
				return err
			}
			if op, err = finish(ClassLooser, GeomSlab, req, shard); err != nil {
				return err
			}
			op.Photons, op.Base, op.Status, op.Cached = base.Photons, bi, 200, true
		case ClassInvalid:
			// No photon budget and no target: refused by normalization at
			// the gateway, before admission and before any shard.
			req := slabReq(16, 1)
			req.Photons, req.Seed = 0, g.rng.Uint64()
			if op, err = finish(ClassInvalid, "", req, -1); err != nil {
				return err
			}
			op.Status = 422
		case ClassFresh:
			// A job a dup follows runs ~40 ms of kernel, so that the dup,
			// due dupDelay later, finds it in flight.
			req := slabReq(16, 1)
			if s.dupOrig {
				req = slabReq(16, 64)
			}
			if op, err = g.op(g.rng, ClassFresh, GeomSlab, req); err != nil {
				return err
			}
		}
		op.Tenant, op.Due = s.tenant, due[i]
		op.MayShed = s.tenant == TenantGreedy && s.class != ClassInvalid
		w.Timed = append(w.Timed, op)
		if s.dupOrig {
			dup := op
			dup.Class, dup.Status, dup.Coalesced = ClassDup, 200, true
			dup.Due += dupDelay
			dup.Orig = len(w.Timed) - 1
			w.Timed = append(w.Timed, dup)
		}
	}
	// The dups were appended behind their originals; put the schedule back
	// in due order and point each dup at where its original went.
	order := make([]int, len(w.Timed))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w.Timed[order[a]].Due < w.Timed[order[b]].Due })
	sorted, moved := make([]Op, len(order)), make([]int, len(order))
	for to, from := range order {
		sorted[to], moved[from] = w.Timed[from], to
	}
	for i := range sorted {
		if sorted[i].Orig >= 0 {
			sorted[i].Orig = moved[sorted[i].Orig]
		}
	}
	w.Timed = sorted
	return nil
}

// dupDelay is how long after its original a duplicate is due: long enough
// that the original's acknowledgement is back (a few milliseconds), far
// shorter than the original runs.
const dupDelay = 5 * time.Millisecond

// Expected counts what a correct run of the timed part shows, as the
// generator knows it before anything is sent.
type Expected struct {
	Valid   int // submissions that must end in a result
	Repeat  int // exact-key hits
	Looser  int // physics-key hits
	Dup     int // coalesced submissions
	Invalid int // 422s
	MayShed int // submissions of the over-quota tenant
	Photons int64
	// PerShard counts the jobs that must run, by owning shard.
	PerShard  [Shards]int
	PerTenant map[string]int
}

// Expect tallies the timed schedule.
func (w *Workload) Expect() Expected {
	e := Expected{PerTenant: make(map[string]int)}
	for i := range w.Timed {
		op := &w.Timed[i]
		switch op.Class {
		case ClassRepeat:
			e.Repeat++
		case ClassLooser:
			e.Looser++
		case ClassDup:
			e.Dup++
		case ClassInvalid:
			e.Invalid++
		}
		if op.Class != ClassInvalid {
			e.Valid++
			e.Photons += op.Photons
		}
		if op.MayShed {
			e.MayShed++
		}
		if op.Status == 201 {
			e.PerShard[op.Shard]++
		}
		if op.Tenant != "" {
			e.PerTenant[op.Tenant]++
		}
	}
	return e
}

// Requests returns one small fixed request per geometry (16 photons of
// slab; five chunks of layered and of voxel head; five chunks of head with
// the path grid under "grid"): the fixed inputs of the layer probes whose
// metric names a geometry.
func Requests() (map[string]*service.JobRequest, error) {
	vox, err := voxelHeadSpec()
	if err != nil {
		return nil, err
	}
	slab := slabReq(16, 1)
	out := map[string]*service.JobRequest{GeomSlab: &slab}
	for name, spec := range map[string]*mc.Spec{GeomHead: headSpec(), GeomVoxel: vox, "grid": gridSpec()} {
		out[name] = &service.JobRequest{Spec: spec, Photons: 5 * ChunkPhotons, ChunkPhotons: ChunkPhotons}
	}
	for _, r := range out {
		r.Seed = 1
	}
	return out, nil
}
