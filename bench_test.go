// Benchmarks regenerating every table and figure of the paper, plus kernel
// micro-benchmarks and design-choice ablations. Run:
//
//	go test -bench=. -benchmem .
//
// Paper-shape expectations are encoded as reported metrics (speedup,
// efficiency, makespan hours, detected fractions) rather than assertions,
// so a bench run doubles as an experiment log.
package phomc_test

import (
	"bytes"
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"

	phomc "repro"
	"repro/internal/cluster"
	"repro/internal/distsys"
	"repro/internal/grid"
	"repro/internal/mc"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// --- Figure/table regenerators -----------------------------------------

// BenchmarkFig2Speedup regenerates the speedup curve (Fig 2) via the
// cluster DES and reports speedup and efficiency at 60 processors.
func BenchmarkFig2Speedup(b *testing.B) {
	p := cluster.Params{
		TotalPhotons: 1e9,
		Policy:       sched.FixedChunk{Photons: 1e6},
		Seed:         1,
	}
	var last cluster.SpeedupPoint
	for i := 0; i < b.N; i++ {
		pts := cluster.SpeedupCurve([]int{1, 10, 20, 30, 40, 50, 60}, 210,
			cluster.CampusLAN(), p)
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.Speedup, "speedup@60")
	b.ReportMetric(100*last.Efficiency, "%efficiency@60")
}

// BenchmarkTable2Heterogeneous simulates the 10⁹-photon job on the paper's
// 150-client fleet (Table 2) and reports the predicted makespan in hours
// (paper: ≈2 h).
func BenchmarkTable2Heterogeneous(b *testing.B) {
	fleet := cluster.Table2Fleet()
	var hours float64
	for i := 0; i < b.N; i++ {
		res := cluster.Simulate(fleet, cluster.CampusLAN(), cluster.Params{
			TotalPhotons: 1e9,
			NonDedicated: true,
			Seed:         uint64(i + 1),
		})
		hours = res.Makespan.Hours()
	}
	b.ReportMetric(hours, "makespan-h")
}

// BenchmarkFig3Banana runs the Fig 3 experiment (homogeneous white matter,
// 50³ path grid) at one photon per iteration and reports the detected
// fraction.
func BenchmarkFig3Banana(b *testing.B) {
	cfg := phomc.Fig3Config(3, 1, 50, 12)
	tally, err := phomc.Run(cfg, int64(b.N), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tally.DetectedFraction(), "detected-frac")
}

// BenchmarkFig4HeadModel runs the Fig 4 experiment (layered adult head,
// 50³ absorption grid) and reports the white-matter penetration fraction.
func BenchmarkFig4HeadModel(b *testing.B) {
	cfg := phomc.Fig4Config(50, 40)
	tally, err := phomc.Run(cfg, int64(b.N), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tally.PenetrationFraction(4), "white-pen-frac")
}

// BenchmarkTable1AdultHead benchmarks the plain Table 1 model without
// scoring grids — the paper's core workload per photon, on the
// devirtualised layered fast path. The hot loop must not allocate.
func BenchmarkTable1AdultHead(b *testing.B) {
	cfg := &phomc.Config{Model: phomc.AdultHead()}
	b.ReportAllocs()
	tally, err := phomc.Run(cfg, int64(b.N), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tally.DiffuseReflectance(), "Rd")
}

// --- Kernel and substrate micro-benchmarks ------------------------------

func BenchmarkPhotonWhiteMatter(b *testing.B) {
	cfg := &phomc.Config{Model: phomc.HomogeneousWhiteMatter()}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPhotonScalpSlab(b *testing.B) {
	cfg := &phomc.Config{
		Model: phomc.HomogeneousSlab("scalp", tissue.ScalpProps, 10),
	}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLocalRunnerParallel(b *testing.B) {
	// Informative only on 1-CPU hosts; shows goroutine fan-out overhead.
	cfg := &phomc.Config{Model: phomc.AdultHead()}
	if _, err := phomc.RunParallel(cfg, int64(b.N), 1, 4); err != nil {
		b.Fatal(err)
	}
}

// --- Ablations: the paper's design choices -------------------------------

// BenchmarkBoundaryProbabilistic vs BenchmarkBoundaryDeterministic compare
// the two boundary-physics modes ("classical physics or probabilistic
// methods") on the layered head.
func BenchmarkBoundaryProbabilistic(b *testing.B) {
	cfg := &phomc.Config{Model: phomc.AdultHead(), Boundary: phomc.BoundaryProbabilistic}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBoundaryDeterministic(b *testing.B) {
	cfg := &phomc.Config{Model: phomc.AdultHead(), Boundary: phomc.BoundaryDeterministic}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSourcePencil(b *testing.B)   { benchSource(b, phomc.PencilSource()) }
func BenchmarkSourceGaussian(b *testing.B) { benchSource(b, phomc.GaussianSource(2)) }
func BenchmarkSourceUniform(b *testing.B)  { benchSource(b, phomc.UniformSource(2)) }

func benchSource(b *testing.B, src phomc.Source) {
	b.Helper()
	cfg := &phomc.Config{Model: phomc.AdultHead(), Source: src}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulers compares static scheduling policies on the
// heterogeneous fleet (the reference [4] study).
func BenchmarkSchedulerEqualSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched.EqualSplit(1e9, 150)
	}
}

func BenchmarkSchedulerProportional(b *testing.B) {
	speeds := table2Speeds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ProportionalSplit(1e9, speeds)
	}
}

func BenchmarkSchedulerGA(b *testing.B) {
	speeds := table2Speeds()
	opt := sched.DefaultGAOptions()
	opt.Generations = 100
	b.ResetTimer()
	var ms float64
	for i := 0; i < b.N; i++ {
		_, ms = sched.GASplit(1e9, speeds, opt)
	}
	best := sched.Makespan(sched.ProportionalSplit(1e9, speeds), speeds)
	b.ReportMetric(ms/best, "vs-optimal")
}

func table2Speeds() []float64 {
	fleet := cluster.Table2Fleet()
	r := rng.New(1)
	speeds := make([]float64, len(fleet))
	for i, p := range fleet {
		speeds[i] = p.Mflops(r)
	}
	return speeds
}

// --- Reduction & transport ----------------------------------------------

func BenchmarkGridMerge50(b *testing.B) {
	a := grid.NewCube(50, 40)
	c := grid.NewCube(50, 40)
	for i := range c.Data {
		c.Data[i] = float64(i % 7)
	}
	b.SetBytes(int64(len(c.Data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTallyMerge(b *testing.B) {
	cfg := phomc.Fig4Config(50, 40)
	if err := cfg.Normalize(); err != nil {
		b.Fatal(err)
	}
	part, err := phomc.Run(phomc.Fig4Config(50, 40), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	total := mc.NewTally(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := total.Merge(part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolResult measures envelope encode+decode of a realistic
// chunk result (a one-chunk batch whose tally carries a 50³ grid) — the
// per-chunk wire cost.
func BenchmarkProtocolResult(b *testing.B) {
	tally, err := phomc.Run(phomc.Fig4Config(50, 40), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	msg := &protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{
		Batch: &protocol.ResultBatch{Groups: []protocol.BatchGroup{
			{Chunks: []int{1}, TallyData: mc.AppendTally(nil, tally)}}}}}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	dec := gob.NewDecoder(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(msg); err != nil {
			b.Fatal(err)
		}
		var out protocol.Message
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		buf.Reset()
	}
}

// codecBenchTally builds the wire-representative chunk tally (annulus
// detection plus a mostly-zero 50³ detected-path grid) the tally-codec
// benchmarks encode.
func codecBenchTally(b *testing.B) *mc.Tally {
	b.Helper()
	tally, err := phomc.Run(phomc.Fig3Config(3, 1, 50, 12), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tally
}

// BenchmarkTallyEncodeGob vs BenchmarkTallyEncodeCompact (and the decode
// pair below) compare the two tally codecs on the same chunk result:
// ns/op, bytes/result (reported metric) and allocs. The compact codec is
// what ResultBatch frames and journal snapshots carry; gob is the
// reference it is measured against.
func BenchmarkTallyEncodeGob(b *testing.B) {
	tally := codecBenchTally(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tally); err != nil {
			b.Fatal(err)
		}
		n = buf.Len()
	}
	b.ReportMetric(float64(n), "bytes/result")
}

func BenchmarkTallyEncodeCompact(b *testing.B) {
	tally := codecBenchTally(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mc.AppendTally(buf[:0], tally)
	}
	b.ReportMetric(float64(len(buf)), "bytes/result")
}

func BenchmarkTallyDecodeGob(b *testing.B) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(codecBenchTally(b)); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out mc.Tally
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "bytes/result")
}

func BenchmarkTallyDecodeCompact(b *testing.B) {
	blob := mc.AppendTally(nil, codecBenchTally(b))
	var scratch mc.Tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.DecodeTallyInto(&scratch, blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "bytes/result")
}

// BenchmarkDistributedLoopback runs a complete DataManager job with four
// in-process TCP workers per iteration — the end-to-end distributed path.
func BenchmarkDistributedLoopback(b *testing.B) {
	spec := phomc.NewSpec(
		phomc.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "annulus", RMin: 1, RMax: 4},
	)
	for i := 0; i < b.N; i++ {
		dm, err := distsys.NewDataManager(distsys.JobOptions{
			Spec: spec, TotalPhotons: 2000, ChunkPhotons: 250, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go dm.Serve(l)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				distsys.WorkTCP(l.Addr().String(), distsys.WorkerOptions{
					Name: string(rune('a' + w)),
				})
			}(w)
		}
		if _, err := dm.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

// BenchmarkRegistryMultiJob runs eight small concurrent jobs through the
// multi-job service registry over a four-worker in-memory fleet per
// iteration — the cross-job scheduling, wire codec and reduction overhead
// of the service layer (jobs/sec; physics cost is kept tiny).
func BenchmarkRegistryMultiJob(b *testing.B) {
	model := phomc.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	for i := 0; i < b.N; i++ {
		reg := phomc.NewJobRegistry(phomc.RegistryOptions{
			Policy:       phomc.FairSharePolicy(),
			DrainOnEmpty: true,
			CacheSize:    -1,
		})
		const jobs = 8
		handles := make([]*phomc.ServiceJob, 0, jobs)
		for jb := 0; jb < jobs; jb++ {
			spec := phomc.NewSpec(model,
				phomc.SourceSpec{Kind: "pencil"},
				phomc.DetectorSpec{Kind: "annulus", RMin: 1, RMax: 4})
			out, err := reg.Submit(phomc.ServiceJobSpec{
				Spec:         spec,
				TotalPhotons: 1000,
				ChunkPhotons: 250,
				Seed:         uint64(i*jobs + jb + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, out.Job)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			server, client := net.Pipe()
			go reg.HandleConn(server)
			wg.Add(1)
			go func() {
				defer wg.Done()
				distsys.Work(client, distsys.WorkerOptions{})
			}()
		}
		for _, j := range handles {
			if _, err := j.Wait(time.Minute); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	}
}

// BenchmarkGatedDetection measures the cost of pathlength gating.
func BenchmarkGatedDetection(b *testing.B) {
	cfg := &phomc.Config{
		Model:    phomc.AdultHead(),
		Detector: phomc.AnnulusDetector(5, 15),
		Gate:     phomc.Gate{MinPath: 20, MaxPath: 200},
	}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

// --- Voxel geometry -------------------------------------------------------

// BenchmarkVoxelTraversal runs the voxelized adult head — the heterogeneous
// hot path (fused DDA step-to-boundary, asked once per clear ball rather
// than once per scattering event) — for comparison against
// BenchmarkTable1AdultHead on the layered fast path.
//
// The bulk-head sub-benchmarks are the pair `make kernel-bench` reads: the
// geometry the benchmark's bulk-head workload submits — the head with its
// white matter cut at 44 mm, a pencil source, a 10–30 mm annulus — layered
// and on 120×120×80 voxels of 0.5 mm, one 230-photon Runner.Run (one chunk)
// per op on the same generator state. Their ns/photon ratio is DESIGN.md's
// voxel-over-layered figure; neither may allocate per photon once warm.
func BenchmarkVoxelTraversal(b *testing.B) {
	b.Run("untruncated", func(b *testing.B) {
		g, err := voxel.FromModel(phomc.AdultHead(), 120, 120, 80, 1, 1, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		cfg := &phomc.Config{Geometry: g}
		b.ReportAllocs()
		tally, err := phomc.Run(cfg, int64(b.N), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tally.DiffuseReflectance(), "Rd")
	})

	head := phomc.AdultHead()
	head.Layers[len(head.Layers)-1].Thickness = 44
	annulus := phomc.AnnulusDetector(10, 30)
	chunk := func(cfg *phomc.Config) func(*testing.B) {
		return func(b *testing.B) {
			const photons = 230
			runner, err := mc.NewRunner(cfg)
			if err != nil {
				b.Fatal(err)
			}
			runner.Run(photons, rng.New(7)) // warm the kernel's scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner.Run(photons, rng.New(7))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*photons), "ns/photon")
		}
	}
	b.Run("bulk-head-layered", chunk(&phomc.Config{Model: head, Detector: annulus}))
	g, err := voxel.FromModel(head, 120, 120, 80, 0.5, 0.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bulk-head-voxel", chunk(&phomc.Config{Geometry: g, Detector: annulus}))
}

// BenchmarkVoxelHomogeneousFusion traces a label-homogeneous grid — the
// best case for the same-label safe-radius fusion, where nearly every
// scattering event resolves without seeding the DDA and boundary-bound
// flights leap whole Chebyshev balls per face test.
func BenchmarkVoxelHomogeneousFusion(b *testing.B) {
	g, err := voxel.FromModel(phomc.HomogeneousSlab("phantom", tissue.ScalpProps, 30),
		100, 100, 60, 1, 1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &phomc.Config{Geometry: g}
	b.ReportAllocs()
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVoxelSphereInclusion adds an absorbing sphere so label changes
// (and Fresnel-free interior crossings) appear on the path.
func BenchmarkVoxelSphereInclusion(b *testing.B) {
	g, err := voxel.FromModel(phomc.AdultHead(), 120, 120, 80, 1, 1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := g.AddMedium("tumour", phomc.TransportProperties(2.0, 0.9, 0.3, 1.4))
	if err != nil {
		b.Fatal(err)
	}
	g.PaintSphere(inc, 0, 0, 14, 5)
	cfg := &phomc.Config{Geometry: g}
	if _, err := phomc.Run(cfg, int64(b.N), 1); err != nil {
		b.Fatal(err)
	}
}
