// Package cluster is a discrete-event simulator of the paper's distributed
// system: a DataManager master serving simulation chunks to a fleet of
// non-dedicated, heterogeneous client PCs over a campus network. It
// regenerates the Fig 2 speedup/efficiency curve and the Table 2
// heterogeneous-fleet runtime prediction without needing 150 physical
// machines.
//
// The model captures exactly the costs that bound the paper's efficiency:
// per-message network latency, result transfer time, serial master service
// (assignment + reduction), per-chunk compute time scaled by each
// processor's Mflop/s rating, and stochastic availability of non-dedicated
// machines.
//
// It is a reproduction artefact and stays one (decided in PR 18, ROADMAP
// item 5): the paper's single serial master behind Fig 2 and Table 2, not
// a model of this repository's service. It knows nothing of shards, the
// gateway, parked dispatch, batched results, admission or the cross-job
// scheduler, and predicts nothing about mcgate → mcqueue → mcworker.
// Until ROADMAP item 3's simulation harness gives the tree one event loop
// running the production code, it keeps its private heap and is not grown.
package cluster

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/sched"
)

// Processor describes one client machine class (a Table 2 row). A rating
// range models the paper's measured Mflop/s spread; dedicated machines pin
// Avail to 1.
type Processor struct {
	Name      string
	MflopsMin float64
	MflopsMax float64
	RAMMB     int
	OS        string
}

// Mflops returns a concrete rating drawn from the processor's range.
func (p Processor) Mflops(r *rng.Rand) float64 {
	if p.MflopsMax <= p.MflopsMin {
		return p.MflopsMin
	}
	return p.MflopsMin + (p.MflopsMax-p.MflopsMin)*r.Float64()
}

// Fleet is a concrete set of machines, one entry per client.
type Fleet []Processor

// Homogeneous returns k identical dedicated machines — the Fig 2
// configuration ("Pentium IVs with 512 MB RAM").
func Homogeneous(k int, mflops float64) Fleet {
	f := make(Fleet, k)
	for i := range f {
		f[i] = Processor{
			Name:      fmt.Sprintf("p4-%03d", i),
			MflopsMin: mflops,
			MflopsMax: mflops,
			RAMMB:     512,
			OS:        "Linux",
		}
	}
	return f
}

// Table2Fleet expands Table 2 of the paper into its 150 client machines.
func Table2Fleet() Fleet {
	classes := []struct {
		count int
		p     Processor
	}{
		{91, Processor{Name: "p3-600", MflopsMin: 28, MflopsMax: 31, RAMMB: 256, OS: "Linux"}},
		{50, Processor{Name: "p4-2400", MflopsMin: 190, MflopsMax: 229, RAMMB: 512, OS: "Linux"}},
		{4, Processor{Name: "p2-266", MflopsMin: 15, MflopsMax: 15, RAMMB: 192, OS: "Linux"}},
		{1, Processor{Name: "p4c-1400", MflopsMin: 154, MflopsMax: 154, RAMMB: 1024, OS: "Windows XP"}},
		{1, Processor{Name: "p3-500", MflopsMin: 25, MflopsMax: 25, RAMMB: 512, OS: "Linux"}},
		{1, Processor{Name: "p3-1000", MflopsMin: 37, MflopsMax: 37, RAMMB: 256, OS: "Linux"}},
		{1, Processor{Name: "p4-1700", MflopsMin: 72, MflopsMax: 72, RAMMB: 256, OS: "Linux"}},
		{1, Processor{Name: "amd-2400xp", MflopsMin: 91, MflopsMax: 91, RAMMB: 1024, OS: "FreeBSD"}},
	}
	var f Fleet
	for _, c := range classes {
		for i := 0; i < c.count; i++ {
			p := c.p
			p.Name = fmt.Sprintf("%s-%03d", c.p.Name, i)
			f = append(f, p)
		}
	}
	return f
}

// TotalMflops returns the fleet's aggregate mid-range rating.
func (f Fleet) TotalMflops() float64 {
	t := 0.0
	for _, p := range f {
		t += (p.MflopsMin + p.MflopsMax) / 2
	}
	return t
}

// Network models the communication substrate.
type Network struct {
	// Latency is the one-way message latency.
	Latency time.Duration
	// BandwidthMBps carries chunk-result payloads (tallies and grids).
	BandwidthMBps float64
	// MasterService is the serial server time to handle one message
	// (assignment decision or result reduction): the master bottleneck.
	MasterService time.Duration
	// ResultBytes is the chunk-result payload size.
	ResultBytes int
}

// CampusLAN returns network parameters typical of the paper's setting:
// 100 Mbit switched Ethernet, millisecond-scale latency, and a master that
// reduces a result in a few milliseconds.
func CampusLAN() Network {
	return Network{
		Latency:       1 * time.Millisecond,
		BandwidthMBps: 10,
		MasterService: 3 * time.Millisecond,
		ResultBytes:   64 << 10, // a tally with a coarse grid
	}
}

// Params configure one simulated job.
type Params struct {
	TotalPhotons int64
	// Policy decides dynamic chunk sizes; nil defaults to fixed chunks of
	// TotalPhotons/(50·|fleet|) — the paper platform's self-scheduling.
	Policy sched.Policy
	// PhotonCostFlops is the per-photon compute cost. The default 1e5
	// reproduces the paper's "1 billion photons ≈ 2 h on the Table 2
	// fleet" calibration.
	PhotonCostFlops float64
	// NonDedicated samples a per-chunk availability factor in
	// [AvailMin, AvailMax] (background load on shared machines).
	NonDedicated       bool
	AvailMin, AvailMax float64
	Seed               uint64
}

// DefaultPhotonCostFlops calibrates compute cost against the paper's
// reported aggregate runtime: 10⁹ photons ≈ 2 h on the ~13.6 Gflop/s
// Table 2 fleet at ~75 % mean availability and ~93 % utilisation.
const DefaultPhotonCostFlops = 7e4

func (p *Params) normalize(fleet Fleet) {
	if p.PhotonCostFlops == 0 {
		p.PhotonCostFlops = DefaultPhotonCostFlops
	}
	if p.Policy == nil {
		chunk := p.TotalPhotons / int64(50*len(fleet))
		if chunk < 1 {
			chunk = 1
		}
		p.Policy = sched.FixedChunk{Photons: chunk}
	}
	if p.NonDedicated {
		if p.AvailMax == 0 {
			p.AvailMin, p.AvailMax = 0.5, 1.0
		}
	} else {
		p.AvailMin, p.AvailMax = 1, 1
	}
}

// ProcStats reports one machine's contribution.
type ProcStats struct {
	Name    string
	Mflops  float64
	Chunks  int
	Photons int64
	Busy    time.Duration
}

// Result is the outcome of one simulated job.
type Result struct {
	Makespan   time.Duration
	Chunks     int
	MasterBusy time.Duration
	PerProc    []ProcStats
}

// Utilization returns the mean fraction of the makespan the fleet spent
// computing.
func (r *Result) Utilization() float64 {
	if r.Makespan <= 0 || len(r.PerProc) == 0 {
		return 0
	}
	busy := 0.0
	for _, p := range r.PerProc {
		busy += p.Busy.Seconds()
	}
	return busy / (r.Makespan.Seconds() * float64(len(r.PerProc)))
}

// event is a message arrival at the master: a worker (re-)requesting work,
// possibly carrying a finished chunk's result.
type event struct {
	at   float64 // seconds
	proc int
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Simulate runs the master/worker job on the fleet and returns timing
// results in simulated wall-clock time. The event loop models the paper's
// self-scheduling protocol: an idle worker's request reaches the master
// after one network latency; the master serially services messages
// (assignment decisions and result reductions); compute time scales with
// the machine's Mflop/s and availability; results ship back over the
// network and are reduced before the next assignment to that worker.
func Simulate(fleet Fleet, net Network, p Params) *Result {
	if len(fleet) == 0 || p.TotalPhotons <= 0 {
		return &Result{}
	}
	p.normalize(fleet)
	r := rng.New(p.Seed)

	lat := net.Latency.Seconds()
	service := net.MasterService.Seconds()
	xfer := 0.0
	if net.BandwidthMBps > 0 {
		xfer = float64(net.ResultBytes) / (net.BandwidthMBps * 1e6)
	}

	mflops := make([]float64, len(fleet))
	stats := make([]ProcStats, len(fleet))
	for i, proc := range fleet {
		mflops[i] = proc.Mflops(r)
		stats[i] = ProcStats{Name: proc.Name, Mflops: mflops[i]}
	}

	// All workers request work at t = 0; requests arrive after one latency.
	h := make(eventHeap, 0, len(fleet))
	for i := range fleet {
		h = append(h, event{at: lat, proc: i})
	}
	heap.Init(&h)

	remaining := p.TotalPhotons
	masterFree := 0.0
	masterBusy := 0.0
	lastDone := 0.0
	chunks := 0

	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)

		// Serial master service: result reduction (if any) + next decision.
		start := ev.at
		if masterFree > start {
			start = masterFree
		}
		masterFree = start + service
		masterBusy += service
		if masterFree > lastDone {
			lastDone = masterFree
		}

		if remaining <= 0 {
			continue // job drained; worker told to stop
		}
		chunk := p.Policy.NextChunk(remaining, len(fleet))
		if chunk <= 0 {
			continue
		}
		remaining -= chunk
		chunks++

		avail := p.AvailMin + (p.AvailMax-p.AvailMin)*r.Float64()
		compute := float64(chunk) * p.PhotonCostFlops / (mflops[ev.proc] * 1e6 * avail)

		st := &stats[ev.proc]
		st.Chunks++
		st.Photons += chunk
		st.Busy += secondsToDuration(compute)

		// Assignment travels to the worker, the chunk computes, the result
		// (and the implicit next request) returns to the master.
		arrival := masterFree + lat + compute + xfer + lat
		heap.Push(&h, event{at: arrival, proc: ev.proc})
	}

	return &Result{
		Makespan:   secondsToDuration(lastDone),
		Chunks:     chunks,
		MasterBusy: secondsToDuration(masterBusy),
		PerProc:    stats,
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// SpeedupPoint is one point of the Fig 2 curve.
type SpeedupPoint struct {
	Workers    int
	Makespan   time.Duration
	Speedup    float64
	Efficiency float64
}

// SpeedupCurve regenerates Fig 2: makespan, speedup T(1)/T(k) and
// efficiency T(1)/(k·T(k)) for each worker count, on homogeneous dedicated
// machines of the given rating.
func SpeedupCurve(workerCounts []int, mflops float64, net Network, p Params) []SpeedupPoint {
	t1 := Simulate(Homogeneous(1, mflops), net, p).Makespan.Seconds()
	points := make([]SpeedupPoint, 0, len(workerCounts))
	for _, k := range workerCounts {
		res := Simulate(Homogeneous(k, mflops), net, p)
		tk := res.Makespan.Seconds()
		sp := 0.0
		if tk > 0 {
			sp = t1 / tk
		}
		points = append(points, SpeedupPoint{
			Workers:    k,
			Makespan:   res.Makespan,
			Speedup:    sp,
			Efficiency: sp / float64(k),
		})
	}
	return points
}

// StaticResult reports a static-allocation run (no dynamic requests): each
// worker computes its whole allocation in one block. Used for the
// scheduling ablation (equal vs proportional vs GA static plans).
func StaticResult(fleet Fleet, net Network, p Params, alloc []int64) *Result {
	if len(alloc) != len(fleet) {
		panic("cluster: allocation length does not match fleet")
	}
	p.normalize(fleet)
	r := rng.New(p.Seed)

	lat := net.Latency.Seconds()
	xfer := 0.0
	if net.BandwidthMBps > 0 {
		xfer = float64(net.ResultBytes) / (net.BandwidthMBps * 1e6)
	}

	stats := make([]ProcStats, len(fleet))
	last := 0.0
	for i, proc := range fleet {
		m := proc.Mflops(r)
		avail := p.AvailMin + (p.AvailMax-p.AvailMin)*r.Float64()
		compute := float64(alloc[i]) * p.PhotonCostFlops / (m * 1e6 * avail)
		end := lat + compute + xfer + lat
		stats[i] = ProcStats{Name: proc.Name, Mflops: m, Chunks: 1, Photons: alloc[i],
			Busy: secondsToDuration(compute)}
		if end > last {
			last = end
		}
	}
	return &Result{Makespan: secondsToDuration(last), Chunks: len(fleet), PerProc: stats}
}
