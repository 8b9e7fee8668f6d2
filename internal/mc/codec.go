package mc

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/stats"
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
// byte, varint-coded integers, raw little-endian float64 bits, and
// zero-run sparse coding for the slice payloads (per-region arrays,
// scoring grids, histograms), which are mostly zero for a single chunk.
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
	if t.AbsGrid != nil {
		flags |= tallyHasAbsGrid
	}
	if t.PathGrid != nil {
		flags |= tallyHasPathGrid
	}
	if t.PathHist != nil {
		flags |= tallyHasPathHist
	}
	if t.Radial != nil {
		flags |= tallyHasRadial
	}
	if t.Moments != nil {
		flags |= tallyHasMoments
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendVarint(buf, t.Launched)
	buf = appendF64(buf, t.SpecularWeight, t.DiffuseWeight, t.TransmitWeight,
		t.AbsorbedWeight, t.LateralWeight, t.RouletteGain, t.RouletteLoss)
	buf = binary.AppendVarint(buf, t.DetectedCount)
	buf = appendF64(buf, t.DetectedWeight, t.GateRejected)
	for _, r := range []*stats.Running{&t.PathStats, &t.OptPathStats, &t.DepthStats, &t.ScatterStats} {
		buf = binary.AppendVarint(buf, r.N)
		buf = appendF64(buf, r.SumW, r.SumWX, r.SumWX2, r.MinV, r.MaxV)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.LayerAbsorbed)))
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
	if t.Moments != nil {
		for _, r := range [...]*stats.Running{
			&t.Moments.Diffuse, &t.Moments.Transmit, &t.Moments.Absorbed, &t.Moments.Detected} {
			buf = binary.AppendVarint(buf, r.N)
			buf = appendF64(buf, r.SumW, r.SumWX, r.SumWX2, r.MinV, r.MaxV)
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
// allocation.
func DecodeTallyInto(t *Tally, data []byte) error {
	d := tallyDecoder{data: data}
	version, err := d.byte()
	if err != nil {
		return err
	}
	if version != TallyCodecVersion && version != TallyCodecVersionMoments {
		return fmt.Errorf("mc: tally codec: unsupported version %d (want %d or %d)",
			version, TallyCodecVersion, TallyCodecVersionMoments)
	}
	flags, err := d.uvarint()
	if err != nil {
		return err
	}
	if version < TallyCodecVersionMoments && flags&tallyHasMoments != 0 {
		return fmt.Errorf("mc: tally codec: version %d frame carries moments", version)
	}
	if t.Launched, err = d.varint(); err != nil {
		return err
	}
	if err := d.f64(&t.SpecularWeight, &t.DiffuseWeight, &t.TransmitWeight,
		&t.AbsorbedWeight, &t.LateralWeight, &t.RouletteGain, &t.RouletteLoss); err != nil {
		return err
	}
	if t.DetectedCount, err = d.varint(); err != nil {
		return err
	}
	if err := d.f64(&t.DetectedWeight, &t.GateRejected); err != nil {
		return err
	}
	for _, r := range []*stats.Running{&t.PathStats, &t.OptPathStats, &t.DepthStats, &t.ScatterStats} {
		if r.N, err = d.varint(); err != nil {
			return err
		}
		if err := d.f64(&r.SumW, &r.SumWX, &r.SumWX2, &r.MinV, &r.MaxV); err != nil {
			return err
		}
	}
	regions, err := d.length(maxCodecRegions, "regions")
	if err != nil {
		return err
	}
	if t.LayerAbsorbed, err = d.sparseF64(t.LayerAbsorbed, regions); err != nil {
		return err
	}
	t.LayerReached = resizeI64(t.LayerReached, regions)
	if err := d.sparseI64(t.LayerReached); err != nil {
		return err
	}
	if t.LayerEnteredWeight, err = d.sparseF64(t.LayerEnteredWeight, regions); err != nil {
		return err
	}

	if flags&tallyHasAbsGrid != 0 {
		if t.AbsGrid, err = d.grid(t.AbsGrid); err != nil {
			return err
		}
	} else {
		t.AbsGrid = nil
	}
	if flags&tallyHasPathGrid != 0 {
		if t.PathGrid, err = d.grid(t.PathGrid); err != nil {
			return err
		}
	} else {
		t.PathGrid = nil
	}
	if flags&tallyHasPathHist != 0 {
		if t.PathHist, err = d.hist(t.PathHist); err != nil {
			return err
		}
	} else {
		t.PathHist = nil
	}
	if flags&tallyHasRadial != 0 {
		if t.Radial, err = d.hist(t.Radial); err != nil {
			return err
		}
	} else {
		t.Radial = nil
	}
	if flags&tallyHasMoments != 0 {
		if t.Moments == nil {
			t.Moments = &Moments{}
		}
		for _, r := range [...]*stats.Running{
			&t.Moments.Diffuse, &t.Moments.Transmit, &t.Moments.Absorbed, &t.Moments.Detected} {
			if r.N, err = d.varint(); err != nil {
				return err
			}
			if err := d.f64(&r.SumW, &r.SumWX, &r.SumWX2, &r.MinV, &r.MaxV); err != nil {
				return err
			}
		}
	} else {
		t.Moments = nil
	}
	if d.off != len(d.data) {
		return fmt.Errorf("mc: tally codec: %d trailing bytes", len(d.data)-d.off)
	}
	return nil
}

// --- encode helpers ------------------------------------------------------

func appendF64(buf []byte, vs ...float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// appendSparseF64 writes a slice of known length as alternating
// (zero-run, nonzero-run + values) pairs. Zero means the exact bit pattern
// of +0.0 — negative zero and denormals round-trip as values — so decoding
// reproduces the input bit-for-bit.
func appendSparseF64(buf []byte, vs []float64) []byte {
	for i := 0; i < len(vs); {
		z := i
		for i < len(vs) && math.Float64bits(vs[i]) == 0 {
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(i-z))
		if i == len(vs) {
			break
		}
		n := i
		for i < len(vs) && math.Float64bits(vs[i]) != 0 {
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(i-n))
		buf = appendF64(buf, vs[n:i]...)
	}
	return buf
}

func appendSparseI64(buf []byte, vs []int64) []byte {
	for i := 0; i < len(vs); {
		z := i
		for i < len(vs) && vs[i] == 0 {
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(i-z))
		if i == len(vs) {
			break
		}
		n := i
		for i < len(vs) && vs[i] != 0 {
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(i-n))
		for _, v := range vs[n:i] {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

func appendGrid(buf []byte, g *grid.Grid3) []byte {
	buf = binary.AppendUvarint(buf, uint64(g.Nx))
	buf = binary.AppendUvarint(buf, uint64(g.Ny))
	buf = binary.AppendUvarint(buf, uint64(g.Nz))
	buf = appendF64(buf, g.Dx, g.Dy, g.Dz, g.X0, g.Y0)
	return appendSparseF64(buf, g.Data)
}

func appendHist(buf []byte, h *stats.Histogram) []byte {
	buf = appendF64(buf, h.Min, h.Max, h.Under, h.Over)
	buf = binary.AppendUvarint(buf, uint64(len(h.Counts)))
	return appendSparseF64(buf, h.Counts)
}

// --- decode helpers ------------------------------------------------------

type tallyDecoder struct {
	data []byte
	off  int
}

func (d *tallyDecoder) byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, fmt.Errorf("mc: tally codec: truncated frame")
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *tallyDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("mc: tally codec: bad uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *tallyDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("mc: tally codec: bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// length reads a uvarint bounded by max, guarding allocations.
func (d *tallyDecoder) length(max uint64, what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("mc: tally codec: %s length %d exceeds bound %d", what, v, max)
	}
	return int(v), nil
}

func (d *tallyDecoder) f64(dst ...*float64) error {
	if d.off+8*len(dst) > len(d.data) {
		return fmt.Errorf("mc: tally codec: truncated float block at offset %d", d.off)
	}
	for _, p := range dst {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
		d.off += 8
	}
	return nil
}

// sparseF64 decodes an n-element sparse slice, into reuse when it has the
// room. A fresh slice is allocated only after a dry run over the runs has
// shown the payload backs the header's n: a short frame that merely claims
// a 2^28-cell grid is refused having allocated nothing.
func (d *tallyDecoder) sparseF64(reuse []float64, n int) ([]float64, error) {
	if cap(reuse) < n {
		start := d.off
		if err := d.sparseRunsF64(nil, n); err != nil {
			return nil, err
		}
		d.off = start
		reuse = make([]float64, n)
	}
	reuse = reuse[:n]
	return reuse, d.sparseRunsF64(reuse, n)
}

// sparseRunsF64 walks the (zero-run, value-run) pairs of an n-element
// slice, storing into dst unless it is nil (the dry run).
func (d *tallyDecoder) sparseRunsF64(dst []float64, n int) error {
	rem := n
	i := 0
	for rem > 0 {
		z, err := d.uvarint()
		if err != nil {
			return err
		}
		if z > uint64(rem) {
			return fmt.Errorf("mc: tally codec: zero run %d exceeds remaining %d", z, rem)
		}
		if dst != nil {
			clear(dst[i : i+int(z)])
		}
		i += int(z)
		rem -= int(z)
		if rem == 0 {
			break
		}
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v == 0 || v > uint64(rem) {
			return fmt.Errorf("mc: tally codec: value run %d outside (0,%d]", v, rem)
		}
		if d.off+8*int(v) > len(d.data) {
			return fmt.Errorf("mc: tally codec: truncated value run at offset %d", d.off)
		}
		if dst != nil {
			for j := range dst[i : i+int(v)] {
				dst[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off+8*j:]))
			}
		}
		d.off += 8 * int(v)
		i += int(v)
		rem -= int(v)
	}
	return nil
}

func (d *tallyDecoder) sparseI64(dst []int64) error {
	rem := len(dst)
	i := 0
	for rem > 0 {
		z, err := d.uvarint()
		if err != nil {
			return err
		}
		if z > uint64(rem) {
			return fmt.Errorf("mc: tally codec: zero run %d exceeds remaining %d", z, rem)
		}
		for j := 0; j < int(z); j++ {
			dst[i] = 0
			i++
		}
		rem -= int(z)
		if rem == 0 {
			break
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n == 0 || n > uint64(rem) {
			return fmt.Errorf("mc: tally codec: value run %d outside (0,%d]", n, rem)
		}
		for j := 0; j < int(n); j++ {
			v, err := d.varint()
			if err != nil {
				return err
			}
			dst[i] = v
			i++
		}
		rem -= int(n)
	}
	return nil
}

func (d *tallyDecoder) grid(reuse *grid.Grid3) (*grid.Grid3, error) {
	nx, err := d.length(MaxGridN, "grid nx")
	if err != nil {
		return nil, err
	}
	ny, err := d.length(MaxGridN, "grid ny")
	if err != nil {
		return nil, err
	}
	nz, err := d.length(MaxGridN, "grid nz")
	if err != nil {
		return nil, err
	}
	// Each edge is at most MaxGridN, so the cell count cannot overflow.
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("mc: tally codec: grid %dx%dx%d out of bounds", nx, ny, nz)
	}
	g := reuse
	if g == nil || g.Nx != nx || g.Ny != ny || g.Nz != nz {
		g = &grid.Grid3{Nx: nx, Ny: ny, Nz: nz}
	}
	if err := d.f64(&g.Dx, &g.Dy, &g.Dz, &g.X0, &g.Y0); err != nil {
		return nil, err
	}
	if g.Data, err = d.sparseF64(g.Data, nx*ny*nz); err != nil {
		return nil, err
	}
	return g, nil
}

func (d *tallyDecoder) hist(reuse *stats.Histogram) (*stats.Histogram, error) {
	h := reuse
	if h == nil {
		h = &stats.Histogram{}
	}
	if err := d.f64(&h.Min, &h.Max, &h.Under, &h.Over); err != nil {
		return nil, err
	}
	bins, err := d.length(MaxHistBins, "histogram bins")
	if err != nil {
		return nil, err
	}
	if h.Counts, err = d.sparseF64(h.Counts, bins); err != nil {
		return nil, err
	}
	return h, nil
}

func resizeI64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}
