package mc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TallyCodecVersion is the wire version byte leading the compact encoding
// of a legacy (moment-free) tally. Decoders reject unknown versions, so
// the format can evolve without silently misreading old bytes.
const TallyCodecVersion = 1

// TallyCodecVersionMoments is the version byte of frames carrying the
// chunk-level moment accumulators of precision-targeted jobs. The encoder
// emits it only when Tally.Moments is non-nil, so every moment-free tally
// — in particular every fixed-count legacy job's chunks — still encodes
// byte-identically to version 1.
const TallyCodecVersionMoments = 2

// The compact codec is the hand-rolled binary tally format used on the
// wire and in journal snapshots (AppendTally / DecodeTally): a version
// byte, internal/wire's varints and float bits, and zero-run sparse coding
// for the slice payloads (per-region arrays, scoring grids, histograms),
// which are mostly zero for a single chunk.
// Encoding is exact — float64 bit patterns round-trip unchanged — so a
// decoded chunk tally merges to bit-identical results.

// Optional-section presence flags (bit positions in the flags varint).
// tallyHasMoments is only valid in version-2 frames.
const (
	tallyHasAbsGrid = 1 << iota
	tallyHasPathGrid
	tallyHasPathHist
	tallyHasRadial
	tallyHasMoments
)

// Decode-side sanity bound: a hostile or corrupt frame must not drive a
// multi-gigabyte allocation before the mismatch is noticed. Scoring grids
// and histograms are held to the bounds spec validation enforces at ingress
// (MaxGridN per edge, MaxHistBins).
const maxCodecRegions = 1 << 20

// AppendTally appends the compact encoding of t to buf and returns the
// extended slice. Passing buf[:0] of a retained buffer makes steady-state
// encoding allocation-free; the worker reuses one buffer per session.
func AppendTally(buf []byte, t *Tally) []byte {
	version := byte(TallyCodecVersion)
	if t.Moments != nil {
		version = TallyCodecVersionMoments
	}
	buf = append(buf, version)
	var flags uint64
	for bit, present := range [...]bool{t.AbsGrid != nil, t.PathGrid != nil, t.PathHist != nil,
		t.Radial != nil, t.Moments != nil} { // tallyHasAbsGrid … tallyHasMoments
		if present {
			flags |= 1 << bit
		}
	}
	buf = wire.AppendUvarint(buf, flags)
	buf = wire.AppendVarint(buf, t.Launched)
	buf = wire.AppendFloats(buf, t.SpecularWeight, t.DiffuseWeight, t.TransmitWeight,
		t.AbsorbedWeight, t.LateralWeight, t.RouletteGain, t.RouletteLoss)
	buf = wire.AppendVarint(buf, t.DetectedCount)
	buf = wire.AppendFloats(buf, t.DetectedWeight, t.GateRejected)
	for _, r := range [...]*stats.Running{&t.PathStats, &t.OptPathStats, &t.DepthStats, &t.ScatterStats} {
		buf = appendRunning(buf, r)
	}
	buf = wire.AppendUvarint(buf, uint64(len(t.LayerAbsorbed)))
	buf = appendSparseF64(buf, t.LayerAbsorbed)
	buf = appendSparseI64(buf, t.LayerReached)
	buf = appendSparseF64(buf, t.LayerEnteredWeight)
	if t.AbsGrid != nil {
		buf = appendGrid(buf, t.AbsGrid)
	}
	if t.PathGrid != nil {
		buf = appendGrid(buf, t.PathGrid)
	}
	if t.PathHist != nil {
		buf = appendHist(buf, t.PathHist)
	}
	if t.Radial != nil {
		buf = appendHist(buf, t.Radial)
	}
	if m := t.Moments; m != nil {
		for _, r := range [...]*stats.Running{&m.Diffuse, &m.Transmit, &m.Absorbed, &m.Detected} {
			buf = appendRunning(buf, r)
		}
	}
	return buf
}

// DecodeTally decodes one compact tally.
func DecodeTally(data []byte) (*Tally, error) {
	t := new(Tally)
	if err := DecodeTallyInto(t, data); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTallyInto decodes into t, reusing its slices and optional sections
// when the shapes match — a long-lived reducer connection decodes thousands
// of chunk results into one scratch tally with near-zero steady-state
// allocation. On an error t holds a partial decode.
func DecodeTallyInto(t *Tally, data []byte) error {
	r := wire.NewReader(data)
	version := r.Byte()
	if r.Err() == nil && version != TallyCodecVersion && version != TallyCodecVersionMoments {
		r.Failf("unsupported version %d (want %d or %d)", version, TallyCodecVersion, TallyCodecVersionMoments)
	}
	flags := r.Uvarint()
	if version < TallyCodecVersionMoments && flags&tallyHasMoments != 0 {
		r.Failf("version %d frame carries moments", version)
	}
	t.Launched = r.Varint()
	t.SpecularWeight, t.DiffuseWeight, t.TransmitWeight = r.Float(), r.Float(), r.Float()
	t.AbsorbedWeight, t.LateralWeight, t.RouletteGain, t.RouletteLoss = r.Float(), r.Float(), r.Float(), r.Float()
	t.DetectedCount = r.Varint()
	t.DetectedWeight, t.GateRejected = r.Float(), r.Float()
	for _, s := range [...]*stats.Running{&t.PathStats, &t.OptPathStats, &t.DepthStats, &t.ScatterStats} {
		readRunning(&r, s)
	}
	// The region count sizes the first slice only after its runs are seen
	// to back it; the other two take that slice's length.
	t.LayerAbsorbed = sparseF64(&r, t.LayerAbsorbed, r.Length(maxCodecRegions, "regions"))
	regions := len(t.LayerAbsorbed)
	t.LayerReached = slices.Grow(t.LayerReached[:0], regions)[:regions]
	sparseI64(&r, t.LayerReached)
	t.LayerEnteredWeight = sparseF64(&r, t.LayerEnteredWeight, regions)

	t.AbsGrid = readGrid(&r, flags&tallyHasAbsGrid != 0, t.AbsGrid)
	t.PathGrid = readGrid(&r, flags&tallyHasPathGrid != 0, t.PathGrid)
	t.PathHist = readHist(&r, flags&tallyHasPathHist != 0, t.PathHist)
	t.Radial = readHist(&r, flags&tallyHasRadial != 0, t.Radial)
	if flags&tallyHasMoments == 0 {
		t.Moments = nil
	} else {
		if t.Moments == nil {
			t.Moments = &Moments{}
		}
		m := t.Moments
		for _, s := range [...]*stats.Running{&m.Diffuse, &m.Transmit, &m.Absorbed, &m.Detected} {
			readRunning(&r, s)
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("mc: tally codec: %w", err)
	}
	return nil
}

// --- encode helpers ------------------------------------------------------

func appendRunning(buf []byte, r *stats.Running) []byte {
	buf = wire.AppendVarint(buf, r.N)
	return wire.AppendFloats(buf, r.SumW, r.SumWX, r.SumWX2, r.MinV, r.MaxV)
}

// appendSparseF64 writes a slice of known length as alternating
// (zero-run, nonzero-run + values) pairs. Zero means the exact bit pattern
// of +0.0 — negative zero and denormals round-trip as values — so decoding
// reproduces the input bit-for-bit.
func appendSparseF64(buf []byte, vs []float64) []byte {
	for i := 0; i < len(vs); {
		z := i
		// A grid's zero runs are long: step over them four cells at a time.
		for i+4 <= len(vs) && math.Float64bits(vs[i])|math.Float64bits(vs[i+1])|
			math.Float64bits(vs[i+2])|math.Float64bits(vs[i+3]) == 0 {
			i += 4
		}
		for i < len(vs) && math.Float64bits(vs[i]) == 0 {
			i++
		}
		buf = wire.AppendUvarint(buf, uint64(i-z))
		if i == len(vs) {
			break
		}
		n := i
		for i < len(vs) && math.Float64bits(vs[i]) != 0 {
			i++
		}
		buf = wire.AppendUvarint(buf, uint64(i-n))
		buf = wire.AppendFloats(buf, vs[n:i]...)
	}
	return buf
}

func appendSparseI64(buf []byte, vs []int64) []byte {
	for i := 0; i < len(vs); {
		z := i
		for i < len(vs) && vs[i] == 0 {
			i++
		}
		buf = wire.AppendUvarint(buf, uint64(i-z))
		if i == len(vs) {
			break
		}
		n := i
		for i < len(vs) && vs[i] != 0 {
			i++
		}
		buf = wire.AppendUvarint(buf, uint64(i-n))
		for _, v := range vs[n:i] {
			buf = wire.AppendVarint(buf, v)
		}
	}
	return buf
}

func appendGrid(buf []byte, g *grid.Grid3) []byte {
	buf = wire.AppendUvarint(buf, uint64(g.Nx))
	buf = wire.AppendUvarint(buf, uint64(g.Ny))
	buf = wire.AppendUvarint(buf, uint64(g.Nz))
	buf = wire.AppendFloats(buf, g.Dx, g.Dy, g.Dz, g.X0, g.Y0)
	return appendSparseF64(buf, g.Data)
}

func appendHist(buf []byte, h *stats.Histogram) []byte {
	buf = wire.AppendFloats(buf, h.Min, h.Max, h.Under, h.Over)
	buf = wire.AppendUvarint(buf, uint64(len(h.Counts)))
	return appendSparseF64(buf, h.Counts)
}

// --- decode helpers ------------------------------------------------------

func readRunning(r *wire.Reader, s *stats.Running) {
	s.N = r.Varint()
	s.SumW, s.SumWX, s.SumWX2, s.MinV, s.MaxV = r.Float(), r.Float(), r.Float(), r.Float(), r.Float()
}

// sparseF64 decodes an n-element sparse slice, into reuse when it has the
// room. A fresh slice is allocated only after a dry run over the runs, on a
// copy of r, has shown the payload backs the header's n: a short frame that
// merely claims a 2^24-cell grid is refused having allocated nothing.
func sparseF64(r *wire.Reader, reuse []float64, n int) []float64 {
	if cap(reuse) < n {
		dry := *r
		if sparseRunsF64(&dry, nil, n); dry.Err() != nil {
			*r = dry
			return nil
		}
		reuse = make([]float64, n)
	}
	reuse = reuse[:n]
	sparseRunsF64(r, reuse, n)
	return reuse
}

// sparseRunsF64 walks the (zero-run, value-run) pairs of an n-element
// slice, storing into dst unless it is nil (the dry run).
func sparseRunsF64(r *wire.Reader, dst []float64, n int) {
	for i := 0; i < n; {
		z := r.Length(n-i, "zero run")
		if dst != nil {
			clear(dst[i : i+z])
		}
		if i += z; i == n {
			return
		}
		v := r.Length(n-i, "value run")
		if v == 0 {
			r.Failf("empty value run")
			return
		}
		if dst != nil {
			r.Floats(dst[i : i+v])
		} else {
			r.Next(8 * v)
		}
		i += v
	}
}

func sparseI64(r *wire.Reader, dst []int64) {
	for i := 0; i < len(dst); {
		z := r.Length(len(dst)-i, "zero run")
		clear(dst[i : i+z])
		if i += z; i == len(dst) {
			return
		}
		v := r.Length(len(dst)-i, "value run")
		if v == 0 {
			r.Failf("empty value run")
			return
		}
		for end := i + v; i < end; i++ {
			dst[i] = r.Varint()
		}
	}
}

// readGrid reads a scoring grid when the frame has one, reusing reuse when
// its edges match; with none it returns nil.
func readGrid(r *wire.Reader, present bool, reuse *grid.Grid3) *grid.Grid3 {
	if !present {
		return nil
	}
	nx, ny, nz := r.Length(MaxGridN, "grid nx"), r.Length(MaxGridN, "grid ny"), r.Length(MaxGridN, "grid nz")
	// Each edge is at most MaxGridN, so the cell count cannot overflow.
	if nx == 0 || ny == 0 || nz == 0 {
		r.Failf("grid %dx%dx%d out of bounds", nx, ny, nz)
		return nil
	}
	g := reuse
	if g == nil || g.Nx != nx || g.Ny != ny || g.Nz != nz {
		g = &grid.Grid3{Nx: nx, Ny: ny, Nz: nz}
	}
	g.Dx, g.Dy, g.Dz, g.X0, g.Y0 = r.Float(), r.Float(), r.Float(), r.Float(), r.Float()
	g.Data = sparseF64(r, g.Data, nx*ny*nz)
	return g
}

// readHist reads a histogram when the frame has one, reusing reuse; with
// none it returns nil.
func readHist(r *wire.Reader, present bool, reuse *stats.Histogram) *stats.Histogram {
	if !present {
		return nil
	}
	h := reuse
	if h == nil {
		h = &stats.Histogram{}
	}
	h.Min, h.Max, h.Under, h.Over = r.Float(), r.Float(), r.Float(), r.Float()
	h.Counts = sparseF64(r, h.Counts, r.Length(MaxHistBins, "histogram bins"))
	return h
}
