package mc

import (
	"math"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/vec"
)

// traceLayered is the devirtualised hot path for layered slab stacks: the
// same hop–drop–spin loop as trace, but with boundary planes, optical
// tables and per-interface Fresnel context precomputed in k.lay, so one
// event costs a table index, one division (the plane distance) and the RNG
// draws — no interface calls, no Hit construction, no vector algebra for
// the axis-aligned reflect/refract. Physics is identical to the generic
// path (TestLayeredFastPathMatchesGeneric gates it statistically).
func (k *kernel) traceLayered(p *subPacket) (deepest int) {
	t := k.tally
	lay := k.lay
	deepest = p.region

	// Hoisted loop invariants: the compiler cannot prove these stable
	// across the tally writes inside the loop.
	maxEvents := k.cfg.MaxEvents
	rouletteThreshold := k.cfg.RouletteThreshold
	rouletteBoost := k.cfg.RouletteBoost
	absGrid := t.AbsGrid

	scat0 := p.scat
	defer func() {
		k.events.Scatter += uint64(p.scat - scat0)
		k.putVisits(p.visits)
		p.visits = nil
	}()

	for events := 0; events < maxEvents; events++ {
		r := p.region
		op := &k.opt[r]

		// Sample the free-path step; a non-interacting layer propagates
		// straight to its boundary.
		s := math.Inf(1)
		if op.Interacting {
			s = k.rng.Step() * op.InvMuT
		}

		// Distance to the layer plane ahead: a single division.
		uz := p.dir.Z
		db := math.Inf(1)
		var face *layerFace
		if uz > 0 {
			db = (lay.bot[r] - p.pos.Z) / uz
			face = &lay.down[r]
		} else if uz < 0 {
			db = (lay.top[r] - p.pos.Z) / uz
			face = &lay.up[r]
		}

		if s >= db {
			if math.IsInf(db, 1) {
				// Unbounded flight in a non-interacting semi-infinite
				// layer: retire into the absorption ledger.
				t.AbsorbedWeight += p.weight
				t.LayerAbsorbed[r] += p.weight
				return deepest
			}
			// Hop to the boundary and resolve reflection/refraction.
			p.pos.X += p.dir.X * db
			p.pos.Y += p.dir.Y * db
			p.pos.Z += p.dir.Z * db
			p.path += db
			p.optPath += db * op.N
			if p.pos.Z > p.maxZ {
				p.maxZ = p.pos.Z
			}
			if !k.crossLayered(p, face, uz) {
				return deepest
			}
			if p.region > deepest {
				deepest = p.region
			}
			continue
		}

		// Hop.
		p.pos.X += p.dir.X * s
		p.pos.Y += p.dir.Y * s
		p.pos.Z += p.dir.Z * s
		p.path += s
		p.optPath += s * op.N
		if p.pos.Z > p.maxZ {
			p.maxZ = p.pos.Z
		}

		// Drop: deposit the absorbed fraction of the packet weight.
		dw := p.weight * op.AbsFrac
		p.weight -= dw
		t.AbsorbedWeight += dw
		t.LayerAbsorbed[r] += dw
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
