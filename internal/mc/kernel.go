package mc

import (
	"math"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/rng"
	"repro/internal/vec"
)

// subPacket is one weighted photon packet. In probabilistic boundary mode a
// launched photon is exactly one sub-packet; in deterministic (classical
// splitting) mode a boundary may fork the packet into a refracted
// continuation and a reflected child.
type subPacket struct {
	pos     vec.V
	dir     vec.V
	weight  float64
	region  int     // geometry region (layer index or voxel label)
	path    float64 // geometric pathlength, mm
	optPath float64 // optical pathlength Σ n·ds, mm
	maxZ    float64 // deepest excursion, mm
	scat    int64   // scattering events
	split   int     // split depth (deterministic mode)
	deep    int     // highest region index this packet (or an ancestor) entered
	// entered is the set of regions this packet (or an ancestor) has been
	// in, for first-entry weight tallies; it covers region indices below
	// maxTrackedRegions (= voxel.MaxMedia), with a monotone fallback above.
	entered [maxTrackedRegions / 64]uint64
	visits  []vec.V // interaction sites, recorded only when PathGrid is scored
}

// maxTrackedRegions bounds the per-packet visited-region bitmask; it
// matches the voxel media limit, so only layered models with >256 layers
// fall back to the monotone depth approximation.
const maxTrackedRegions = 256

// markEntered records region r in the visited set and reports whether this
// is its first entry. Regions beyond the mask fall back to "deeper than
// anything so far", which is exact for depth-ordered layered stacks.
func (p *subPacket) markEntered(r int) bool {
	if r < maxTrackedRegions {
		w, b := r>>6, uint64(1)<<(r&63)
		if p.entered[w]&b != 0 {
			return false
		}
		p.entered[w] |= b
		return true
	}
	return r > p.deep
}

// kernel carries the per-worker simulation state: configuration, geometry,
// RNG stream and the tally being accumulated. Each kernel owns a private
// scratch tally merged once per chunk, so the hot loop never synchronises.
// One kernel must only be used from a single goroutine.
type kernel struct {
	cfg *Config
	geo geom.Geometry
	// rng is the kernel's own copy of the generator state it was handed, so
	// kernels running side by side never write to one generator's memory.
	rng   rng.Rand
	tally *Tally

	// opt is the per-region optical table (mua+mus, albedo, 1/µt, …)
	// precomputed once per Config; lay is the devirtualised layered fast
	// path, nil for voxel/custom geometries.
	opt []regionOpt
	lay *layeredGeom

	recordPaths bool
	stack       []subPacket
	visitPool   [][]vec.V

	// events counts what the transport loops did, for the runners' stats;
	// it is deliberately not part of the Tally (codec, keys and goldens
	// know nothing of it).
	events KernelEvents

	// The pad puts a cache line between this kernel's last field and
	// whatever is allocated after it, so two kernels never share a line:
	// writing one line from two cores runs each at about half speed.
	_ [64]byte
}

// KernelEvents counts the transport loop's work, so a ns/photon figure can
// be read as ns/event and the share of events the clear-radius cache
// served (1 − Query/(Scatter+Crossing)) can be seen from outside.
type KernelEvents struct {
	Scatter  uint64 // hop–drop–spin interactions
	Query    uint64 // Geometry.ToBoundary calls (none on the layered fast path)
	Crossing uint64 // boundary events resolved: reflections, refractions, exits
	Roulette uint64 // packets terminated by Russian roulette
}

// Add folds o into e.
func (e *KernelEvents) Add(o KernelEvents) {
	e.Scatter += o.Scatter
	e.Query += o.Query
	e.Crossing += o.Crossing
	e.Roulette += o.Roulette
}

// newKernel returns a kernel writing into a fresh tally. cfg must already be
// normalised. Tracing begins here, so a geometry that derives traversal
// tables builds them now — once, shared by every kernel on it — rather than
// inside a validation that a non-tracing process also runs, or inside the
// first timed chunk. The kernel draws from its own copy of r.
func newKernel(cfg *Config, r rng.Rand) *kernel {
	if p, ok := cfg.Geometry.(interface{ PrepareTrace() }); ok {
		p.PrepareTrace()
	}
	return &kernel{
		cfg:         cfg,
		geo:         cfg.Geometry,
		rng:         r,
		tally:       NewTally(cfg),
		opt:         cfg.opt,
		lay:         cfg.lay,
		recordPaths: cfg.PathGrid != nil,
	}
}

// getVisits returns an empty visit buffer, reusing returned ones.
func (k *kernel) getVisits() []vec.V {
	if n := len(k.visitPool); n > 0 {
		v := k.visitPool[n-1]
		k.visitPool = k.visitPool[:n-1]
		return v[:0]
	}
	return make([]vec.V, 0, 256)
}

func (k *kernel) putVisits(v []vec.V) {
	if v != nil {
		k.visitPool = append(k.visitPool, v)
	}
}

// RunPhotons simulates n photons, accumulating into the kernel's tally.
func (k *kernel) RunPhotons(n int64) {
	for i := int64(0); i < n; i++ {
		k.onePhoton()
	}
}

// onePhoton launches a single photon packet and follows it (and any
// classical-splitting children) to extinction, implementing the paper's
// Fig 1 pseudocode.
func (k *kernel) onePhoton() {
	t := k.tally
	t.Launched++

	pos, dir := k.cfg.Source.Launch(&k.rng)
	entry := k.geo.RegionAt(pos)
	if entry < 0 {
		// Launched outside the medium's footprint (e.g. a wide source
		// beside a voxel grid): the photon never enters the tissue; score
		// the full weight as lateral loss so the energy books stay closed
		// and an undersized grid is visible in LateralFraction.
		t.LateralWeight++
		return
	}

	// Specular reflection at the entry surface (handled once,
	// deterministically, as in MCML). In a heterogeneous medium the entry
	// region — and hence the specular fraction — may vary across the
	// surface footprint.
	rsp := optics.Specular(k.geo.AmbientIndex(), k.opt[entry].N)
	t.SpecularWeight += rsp

	primary := subPacket{
		pos:    pos,
		dir:    dir,
		weight: 1 - rsp,
		region: entry,
		deep:   entry,
	}
	primary.markEntered(entry) // the entry region is not a penetration
	if k.recordPaths {
		primary.visits = k.getVisits()
	}

	k.stack = append(k.stack[:0], primary)
	deepestRegion := entry

	for len(k.stack) > 0 {
		p := k.stack[len(k.stack)-1]
		k.stack = k.stack[:len(k.stack)-1]
		var d int
		if k.lay != nil {
			d = k.traceLayered(&p)
		} else {
			d = k.trace(&p)
		}
		if d > deepestRegion {
			deepestRegion = d
		}
	}
	t.LayerReached[deepestRegion]++
}

// trace follows one sub-packet to extinction through an arbitrary Geometry
// and returns the deepest region index it visited. Reflected children
// spawned in deterministic mode are pushed onto k.stack. Layered stacks use
// the specialised traceLayered instead.
func (k *kernel) trace(p *subPacket) (deepest int) {
	t := k.tally
	deepest = p.region

	// Hoisted loop invariants, as in traceLayered: the compiler cannot
	// prove these stable across the tally writes inside the loop.
	geo := k.geo
	maxEvents := k.cfg.MaxEvents
	rouletteThreshold := k.cfg.RouletteThreshold
	rouletteBoost := k.cfg.RouletteBoost
	absGrid := t.AbsGrid

	// clearLeft is what is left of the last clear radius the geometry reported
	// (geom.Geometry.ToBoundary), spent as path length: while the sampled
	// step fits in it the medium provably cannot change within the step, so
	// the packet hops without asking. The cache only ever answers "no
	// boundary within s", and only where the geometry would have said the
	// same, so every branch, RNG draw and accumulation below happens in the
	// same order with the same operands as if every event had asked.
	clearLeft := 0.0

	scat0 := p.scat
	defer func() {
		k.events.Scatter += uint64(p.scat - scat0)
		k.putVisits(p.visits)
		p.visits = nil
	}()

	for events := 0; events < maxEvents; events++ {
		op := &k.opt[p.region]

		// Sample the free-path step; a non-interacting region (CSF-like
		// void) propagates straight to its boundary.
		s := math.Inf(1)
		if op.Interacting {
			s = k.rng.Step() * op.InvMuT
		}

		if s < clearLeft {
			clearLeft -= s
		} else {
			// Distance to the next medium change along the current
			// direction, searched only as far as the sampled step needs.
			k.events.Query++
			db, hit, c := geo.ToBoundary(p.pos, p.dir, p.region, s)

			if s >= db {
				// Hop to the boundary and resolve reflection/refraction.
				// Resampling the remaining step in the next region is
				// unbiased by the memorylessness of the exponential free
				// path. Whatever happens there ends the clear ball.
				clearLeft = 0
				if math.IsInf(db, 1) {
					// Unbounded flight in a non-interacting region: the
					// photon leaves the region of interest; score it as
					// lost to absorption to keep the energy books closed.
					t.AbsorbedWeight += p.weight
					t.LayerAbsorbed[p.region] += p.weight
					return deepest
				}
				k.advance(p, db, op.N)
				alive, entered := k.cross(p, &hit, op.N)
				if !alive {
					return deepest
				}
				if entered > deepest {
					deepest = entered
				}
				continue
			}
			clearLeft = c - s
		}

		// Hop.
		k.advance(p, s, op.N)

		// Drop: deposit the absorbed fraction of the packet weight.
		dw := p.weight * op.AbsFrac
		p.weight -= dw
		t.AbsorbedWeight += dw
		t.LayerAbsorbed[p.region] += dw
		if absGrid != nil {
			absGrid.Add(p.pos.X, p.pos.Y, p.pos.Z, dw)
		}
		if k.recordPaths {
			p.visits = append(p.visits, p.pos)
		}

		// Spin: sample the Henyey–Greenstein deflection.
		cosPhi, sinPhi := k.rng.AzimuthUnit()
		p.dir = vec.ScatterCS(p.dir, op.sampleHG(k.rng.Float64()), cosPhi, sinPhi)
		p.scat++

		// Survival roulette for low-weight packets.
		if p.weight < rouletteThreshold {
			if k.rng.Float64()*rouletteBoost < 1 {
				t.RouletteGain += p.weight * (rouletteBoost - 1)
				p.weight *= rouletteBoost
			} else {
				t.RouletteLoss += p.weight
				k.events.Roulette++
				return deepest
			}
		}
	}

	// Event budget exhausted (pathological configuration): retire the
	// packet into the absorption ledger so energy stays conserved.
	t.AbsorbedWeight += p.weight
	t.LayerAbsorbed[p.region] += p.weight
	return deepest
}

// advance moves the packet a distance s through a medium of index n.
func (k *kernel) advance(p *subPacket, s, n float64) {
	p.pos = p.pos.Add(p.dir.Scale(s))
	p.path += s
	p.optPath += s * n
	if p.pos.Z > p.maxZ {
		p.maxZ = p.pos.Z
	}
}

// cross resolves a packet sitting exactly on the boundary described by hit,
// moving in p.dir through a medium of index n1. It returns whether the
// packet is still alive inside the geometry and, if it crossed into a new
// region, that region index (otherwise p.region).
func (k *kernel) cross(p *subPacket, hit *geom.Hit, n1 float64) (alive bool, regionNow int) {
	k.events.Crossing++
	n2 := hit.N2
	cosI := -p.dir.Dot(hit.Normal)
	refl, cosT := optics.Fresnel(n1, n2, cosI)

	reflect := func() (bool, int) {
		p.dir = geom.Reflect(p.dir, hit.Normal)
		return true, p.region
	}

	switch {
	case refl >= 1:
		// Total internal reflection ("photon angle > critical angle" in the
		// paper's pseudocode): always reflect, both modes.
		return reflect()
	case refl > 0 && k.cfg.Boundary == BoundaryDeterministic && p.split < maxSplitDepth:
		// Classical physics: split the packet. The reflected portion
		// continues as a child; the refracted portion proceeds below.
		rw := p.weight * refl
		if rw >= k.cfg.RouletteThreshold {
			child := *p
			child.weight = rw
			child.dir = geom.Reflect(p.dir, hit.Normal)
			child.split = p.split + 1
			if k.recordPaths {
				child.visits = append(k.getVisits(), p.visits...)
			}
			k.stack = append(k.stack, child)
			p.weight -= rw
		} else {
			// Too faint to split: roulette the reflected portion into the
			// continuing packet to stay unbiased without spawning work.
			if k.rng.Float64() < refl {
				return reflect()
			}
		}
	case refl > 0: // probabilistic mode
		if k.rng.Float64() < refl {
			return reflect()
		}
	}

	// Refract across the boundary.
	p.dir = geom.Refract(p.dir, hit.Normal, n1/n2, cosT)

	switch hit.Exit {
	case geom.ExitTop:
		k.escapeTop(p)
		return false, p.region
	case geom.ExitBottom:
		// Escaped through the bottom of a finite medium.
		k.tally.TransmitWeight += p.weight
		return false, p.region
	case geom.ExitLateral:
		// Out the sides of a laterally bounded medium (voxel grids).
		k.tally.LateralWeight += p.weight
		return false, p.region
	}

	p.region = hit.Next
	if p.markEntered(p.region) {
		k.tally.LayerEnteredWeight[p.region] += p.weight
	}
	if p.region > p.deep {
		p.deep = p.region
	}
	return true, p.region
}

// escapeTop scores a packet exiting through the z = 0 surface: diffuse
// reflectance always, plus detection if it lands on the detector footprint
// and passes the pathlength gate.
func (k *kernel) escapeTop(p *subPacket) {
	t := k.tally
	t.DiffuseWeight += p.weight
	if t.Radial != nil {
		t.Radial.Add(math.Hypot(p.pos.X, p.pos.Y), p.weight)
	}

	if !k.cfg.Detector.Captures(p.pos.X, p.pos.Y) {
		return
	}
	if !k.cfg.Gate.Accepts(p.path) {
		t.GateRejected += p.weight
		return
	}

	w := p.weight
	t.DetectedCount++
	t.DetectedWeight += w
	t.PathStats.Add(p.path, w)
	t.OptPathStats.Add(p.optPath, w)
	t.DepthStats.Add(p.maxZ, w)
	t.ScatterStats.Add(float64(p.scat), w)
	if t.PathHist != nil {
		t.PathHist.Add(p.path, w)
	}
	if t.PathGrid != nil {
		for _, v := range p.visits {
			t.PathGrid.Add(v.X, v.Y, v.Z, w)
		}
	}
}
