package mc

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/rng"
	"repro/internal/vec"
)

// traceLayered is the devirtualised hot path for layered slab stacks: the
// same hop–drop–spin loop as trace, but with boundary planes, optical
// tables and per-interface Fresnel context precomputed in k.lay, so one
// event costs a table index, one division (the plane distance) and the RNG
// draws — no interface calls, no Hit construction, no vector algebra for
// the axis-aligned reflect/refract. Physics is identical to the generic
// path (TestLayeredFastPathMatchesGeneric gates it statistically).
//
// The loop is register-resident, as trace is: for the packet's flight
// through one layer, its state, the generator's words and the layer's
// running absorption sums are locals, every draw and the spin compile
// inline, and they are written back to p, k.rng and the tally only when
// the flight leaves the scatter path (a flightStop: a crossing, a
// retirement or a full visit buffer) or the ziggurat needs its slow path. Every draw and every addition happens in
// the same order with the same operands as in a loop working on p, so the
// tallies are bit-identical to it.
func (k *kernel) traceLayered(p *subPacket) (deepest int) {
	t := k.tally
	lay := k.lay
	deepest = p.region

	// Loop invariants, hoisted: the compiler cannot prove them stable
	// across the tally writes inside the loop.
	maxEvents := k.cfg.MaxEvents
	rouletteThreshold := k.cfg.RouletteThreshold
	rouletteBoost := k.cfg.RouletteBoost
	absGrid := t.AbsGrid
	recordPaths := k.recordPaths

	scat0 := p.scat
	events := 0
	for {
		// Load the flight into locals.
		r := p.region
		op := &k.opt[r]
		top, bot := lay.top[r], lay.bot[r]
		up, down := &lay.up[r], &lay.down[r]
		x, y, z := p.pos.X, p.pos.Y, p.pos.Z
		ux, uy, uz := p.dir.X, p.dir.Y, p.dir.Z
		w, path, optPath, maxZ, scat := p.weight, p.path, p.optPath, p.maxZ, p.scat
		visits := p.visits
		st := k.rng.State()
		absorbed, layerAbsorbed := t.AbsorbedWeight, t.LayerAbsorbed[r]

		var stop flightStop
		var face *layerFace
		for {
			if events >= maxEvents {
				stop = stopBudget
				break
			}
			if recordPaths && len(visits) == cap(visits) {
				stop = stopVisitsFull
				break
			}
			events++

			// Sample the free-path step; a non-interacting layer
			// propagates straight to its boundary.
			s := math.Inf(1)
			if op.Interacting {
				var u uint64
				u, st = st.Next()
				xi, ok := rng.StepFast(u)
				if !ok {
					k.rng.SetState(st)
					xi = k.rng.StepTail(u)
					st = k.rng.State()
				}
				s = xi * op.InvMuT
			}

			// Distance to the layer plane ahead: a single division.
			db := math.Inf(1)
			if uz > 0 {
				db = (bot - z) / uz
				face = down
			} else if uz < 0 {
				db = (top - z) / uz
				face = up
			}
			crossing := s >= db
			if crossing {
				if math.IsInf(db, 1) {
					// Unbounded flight in a non-interacting
					// semi-infinite layer.
					stop = stopUnbounded
					break
				}
				// Hop to the boundary, then resolve reflection or
				// refraction there.
				s = db
			}

			// Hop.
			x += ux * s
			y += uy * s
			z += uz * s
			path += s
			optPath += s * op.N
			if z > maxZ {
				maxZ = z
			}
			if crossing {
				stop = stopCrossing
				break
			}

			// Drop: deposit the absorbed fraction of the packet weight.
			dw := w * op.AbsFrac
			w -= dw
			absorbed += dw
			layerAbsorbed += dw
			if absGrid != nil {
				absGrid.Add(x, y, z, dw)
			}
			if recordPaths {
				// The event began with room for one more site.
				visits = visits[:len(visits)+1]
				visits[len(visits)-1] = vec.V{X: x, Y: y, Z: z}
			}

			// Spin: sample the azimuth and the Henyey–Greenstein
			// deflection, and rotate the direction.
			var cosPhi, sinPhi float64
			for {
				var u uint64
				var ok bool
				u, st = st.Next()
				if cosPhi, sinPhi, ok = rng.AzimuthTry(u); ok {
					break
				}
			}
			var u uint64
			u, st = st.Next()
			cosTheta := op.sampleHG(rng.Unit(u))
			d := vec.V{X: ux, Y: uy, Z: uz}
			if f, g, st2, ok := vec.ScatterFG(uz, cosTheta); ok {
				d = vec.Rotate(d, f, g, cosTheta, cosPhi, sinPhi)
			} else {
				d = vec.ScatterEdge(d, st2, cosTheta, cosPhi, sinPhi)
			}
			ux, uy, uz = d.X, d.Y, d.Z
			scat++

			// Survival roulette for low-weight packets.
			if w < rouletteThreshold {
				u, st = st.Next()
				if rng.Unit(u)*rouletteBoost >= 1 {
					stop = stopRoulette
					break
				}
				t.RouletteGain += w * (rouletteBoost - 1)
				w *= rouletteBoost
			}
		}

		// Write the flight back.
		p.pos = vec.V{X: x, Y: y, Z: z}
		p.dir = vec.V{X: ux, Y: uy, Z: uz}
		p.weight, p.path, p.optPath, p.maxZ, p.scat, p.visits = w, path, optPath, maxZ, scat, visits
		k.rng.SetState(st)
		t.AbsorbedWeight, t.LayerAbsorbed[r] = absorbed, layerAbsorbed

		if stop == stopVisitsFull {
			p.visits = slices.Grow(p.visits, len(p.visits)+1)
			continue
		}
		if stop != stopCrossing {
			k.retire(p, stop)
			break
		}
		if !k.crossLayered(p, face, uz) {
			break
		}
		if p.region > deepest {
			deepest = p.region
		}
	}
	k.events.Scatter += uint64(p.scat - scat0)
	k.putVisits(p.visits)
	p.visits = nil
	return deepest
}

// crossLayered resolves a packet sitting exactly on the horizontal face
// described by face, moving with vertical direction component uz. It is the
// axis-aligned specialisation of cross: reflection flips uz, refraction
// scales the transverse components by the precomputed η, and index-matched
// faces (the common case inside a stack of like-indexed tissues) cross with
// no Fresnel evaluation at all. Reports whether the packet is still alive
// inside the geometry.
func (k *kernel) crossLayered(p *subPacket, face *layerFace, uz float64) bool {
	k.events.Crossing++
	if face.matched {
		// Identical indices: R = 0, direction unchanged.
		if face.exit != geom.ExitNone {
			return k.exitLayered(p, face.exit)
		}
		k.enterRegion(p, face.next)
		return true
	}

	cosI := uz
	if cosI < 0 {
		cosI = -cosI
	}
	if cosI <= face.critCos {
		// Beyond the critical angle: total internal reflection, both modes.
		p.dir.Z = -p.dir.Z
		return true
	}

	refl, cosT := optics.Fresnel(face.n1, face.n2, cosI)
	switch {
	case refl >= 1:
		p.dir.Z = -p.dir.Z
		return true
	case refl > 0 && k.cfg.Boundary == BoundaryDeterministic && p.split < maxSplitDepth:
		// Classical physics: split the packet. The reflected portion
		// continues as a child; the refracted portion proceeds below.
		rw := p.weight * refl
		if rw >= k.cfg.RouletteThreshold {
			child := *p
			child.weight = rw
			child.dir.Z = -child.dir.Z
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
				p.dir.Z = -p.dir.Z
				return true
			}
		}
	case refl > 0: // probabilistic mode
		if k.rng.Float64() < refl {
			p.dir.Z = -p.dir.Z
			return true
		}
	}

	// Refract across the horizontal face: transverse components scale by η,
	// the vertical component becomes ±cosT preserving the travel sense.
	p.dir.X *= face.eta
	p.dir.Y *= face.eta
	if uz > 0 {
		p.dir.Z = cosT
	} else {
		p.dir.Z = -cosT
	}

	if face.exit != geom.ExitNone {
		return k.exitLayered(p, face.exit)
	}
	k.enterRegion(p, face.next)
	return true
}

// enterRegion moves the packet into region next, scoring the first-entry
// penetration weight.
func (k *kernel) enterRegion(p *subPacket, next int) {
	p.region = next
	if p.markEntered(next) {
		k.tally.LayerEnteredWeight[next] += p.weight
	}
	if next > p.deep {
		p.deep = next
	}
}

// exitLayered scores a packet leaving the stack through the given face and
// reports it dead. Layered stacks are laterally infinite, so only the top
// and bottom exits exist.
func (k *kernel) exitLayered(p *subPacket, exit geom.ExitKind) bool {
	switch exit {
	case geom.ExitTop:
		k.escapeTop(p)
	case geom.ExitBottom:
		k.tally.TransmitWeight += p.weight
	}
	return false
}
