// Package wire holds the primitives every hand-framed encoding in this
// module is written and read with: the worker protocol's frames, the compact
// tally, the journal's records, the compact submission's header and the
// tally file's. An encoding is a fixed order of these, per layout:
//
//   - unsigned integers and counts are uvarints, signed ones varints;
//   - job ids are fixed64 (a hash, which a uvarint would spend ten bytes
//     on) and floats their IEEE-754 bits as fixed64, little-endian;
//   - byte slices and strings are a uvarint length and the bytes;
//   - a bool is one byte, 0 or 1.
//
// The layouts stay with their packages; this one knows none of them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxVarintLen is the longest a uvarint or varint encodes to.
const MaxVarintLen = binary.MaxVarintLen64

var (
	errTruncated = errors.New("truncated input")
	errVarint    = errors.New("truncated or overlong varint")
)

// Reader reads one encoded value front to back. Its first failure sticks:
// every later read returns a zero value (a bulk read zeroes its slice), so a
// layout decodes straight through and the caller checks Err once, or End.
// A read that sizes something — Count, Length — is bounded before it
// returns. A Reader is a value: a copy reads on from where the original
// stands, without moving it.
type Reader struct {
	data []byte
	off  int // data[off:] is what is left
	err  error
}

// NewReader reads data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes are left.
func (r *Reader) Len() int { return len(r.data) - r.off }

// End fails a reader with bytes left and returns its first failure.
func (r *Reader) End() error {
	if n := r.Len(); n > 0 {
		r.Failf("%d trailing bytes", n)
	}
	return r.err
}

// Failf records a failure — a value the layout does not allow — unless one
// is recorded already, and drops what is left.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(fmt.Errorf(format, args...))
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data, r.off = nil, 0
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// Next returns the next n bytes, aliasing the input.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > r.Len() {
		r.fail(errTruncated)
		return nil
	}
	p := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Rest returns every byte left, aliasing the input, and leaves none.
func (r *Reader) Rest() []byte {
	p := r.data[r.off:]
	r.off = len(r.data)
	return p
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.off += n
	return v
}

// Fixed64 reads eight little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	if r.Len() < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// Float reads a float64's bits.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Fixed64()) }

// Floats fills dst with len(dst) floats.
func (r *Reader) Floats(dst []float64) {
	if r.Len()/8 < len(dst) {
		r.fail(errTruncated)
		clear(dst)
		return
	}
	b := r.data[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	r.off += len(b)
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Failf("a flag byte of %d, not 0 or 1", v)
	}
	return v == 1
}

// Length reads a claimed length and refuses one over max. It suits a
// length whose elements may take no bytes at all, as a sparse run codes
// them; a count of elements that each take at least one is Count's.
// It decodes the uvarint itself, one call where Uvarint would make two: a
// sparse tally reads two lengths a run.
func (r *Reader) Length(max int, what string) int {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	if v > uint64(max) {
		r.Failf("%s %d, max %d", what, v, max)
		return 0
	}
	r.off += n
	return int(v)
}

// Count reads a claimed element count and refuses one over max, or over
// the bytes left (every element takes at least one), before anything is
// sized by it.
func (r *Reader) Count(max int, what string) int {
	n := r.Length(max, what)
	if left := r.Len(); n > left {
		r.Failf("%s %d, %d bytes left", what, n, left)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice, aliasing the input; an empty
// one is nil.
func (r *Reader) Bytes() []byte {
	if n := r.Count(math.MaxInt, "length-prefixed bytes"); n > 0 {
		return r.Next(n)
	}
	return nil
}

// Text reads a length-prefixed string (named String, fmt would call it and read on).
func (r *Reader) Text() string { return string(r.Bytes()) }

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFixed64 appends v as eight little-endian bytes.
func AppendFixed64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat appends v's bits.
func AppendFloat(b []byte, v float64) []byte { return AppendFixed64(b, math.Float64bits(v)) }

// AppendFloats appends each of vs.
func AppendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// AppendBytes appends p behind its length.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// AppendString appends s behind its length.
func AppendString(b []byte, s string) []byte { return append(AppendUvarint(b, uint64(len(s))), s...) }

// AppendBool appends v as 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
