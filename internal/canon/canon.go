// Package canon encodes plain-data values into a canonical byte form for
// content addressing: equal values always produce equal bytes, in every
// process, regardless of what else the process has serialised before.
//
// Neither of the stdlib's obvious candidates has that property over the
// repo's spec types. Gob grants wire type IDs from a process-global
// first-encode-wins counter, so the byte stream for identical values
// shifts with the process's encoding history (connecting a gob-protocol
// worker before the first job submission was enough to change every
// content key). JSON is history-free but cannot represent the ±Inf that
// semi-infinite tissue layers legitimately carry. This encoding is both:
// structs serialise their exported fields in declaration order, floats
// serialise as exact hex literals (covering ±Inf and NaN), and there is
// no registry, cache or counter anywhere.
//
// The format is for hashing, not interchange: there is no decoder, and
// the encoding of a type may only change together with every digest
// derived from it (cache keys, job IDs, report merge gates).
package canon

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strconv"
)

// blockSize is how much encoding Write gathers before each w.Write.
const blockSize = 32 << 10

// encoder carries what one top-level encode shares across the recursion.
type encoder struct {
	w      io.Writer // Write's sink; nil for Append and Split, whose buffer only grows
	split  bool      // Split's walk: a Hole is recorded, not encoded
	holes  int       // Holes met
	holeAt int       // offset of the last
}

// Write encodes v canonically into w (typically a hash.Hash), a block at a
// time. It returns an error only for values outside the plain-data subset
// — funcs, channels, unsafe pointers, complex numbers and non-nil
// interface cycles have no canonical form.
func Write(w io.Writer, v any) error {
	e := encoder{w: w}
	buf, err := e.appendValue(nil, reflect.ValueOf(v))
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Append appends the canonical encoding of v to dst and returns the
// extended slice.
func Append(dst []byte, v any) ([]byte, error) {
	return new(encoder).appendValue(dst, reflect.ValueOf(v))
}

// Hole marks, in a value handed to Split, where a value encoded separately
// belongs. Anywhere else it is the empty struct it looks like.
type Hole struct{}

// Split encodes v, which holds exactly one Hole (not inside a map), and
// returns the encoding cut in two at it: before + Append(nil, x) + after is
// what v would encode to with x in the Hole's place. Hash inputs that embed
// one large value can thus share one walk of it — each hash takes its own
// before, all take x's bytes from one Write, each takes its own after.
func Split(v any) (before, after []byte, err error) {
	e := encoder{split: true}
	buf, err := e.appendValue(nil, reflect.ValueOf(v))
	if err == nil && e.holes != 1 {
		err = fmt.Errorf("canon: Split of a value with %d Holes", e.holes)
	}
	if err != nil {
		return nil, nil, err
	}
	// before is capped, so appending to it cannot run into after.
	return buf[:e.holeAt:e.holeAt], buf[e.holeAt:], nil
}

// drain hands a full block to Write's sink and starts the next one.
func (e *encoder) drain(dst []byte) ([]byte, error) {
	if e.w == nil || len(dst) < blockSize {
		return dst, nil
	}
	_, err := e.w.Write(dst)
	return dst[:0], err
}

// u8 holds, for every byte value, the "u<n>;" appendValue writes for it:
// the text in the low bytes, little-endian, and its length in the top one.
var u8 = func() (t [256]uint64) {
	for i := range t {
		var b [8]byte
		s := append(strconv.AppendUint(append(b[:0], 'u'), uint64(i), 10), ';')
		b[7] = byte(len(s))
		t[i] = binary.LittleEndian.Uint64(b[:])
	}
	return t
}()

// appendBytes emits the elements of a run of bytes — a voxel grid's label
// array is a million of them — at one word store and one add apiece, where
// appendValue costs a reflect.Value and a strconv call. Same bytes.
func (e *encoder) appendBytes(dst, run []byte) ([]byte, error) {
	for len(run) > 0 {
		n := len(run)
		if e.w != nil {
			n = min(n, blockSize/5)
		}
		// "u255;" is the longest element; eight spare bytes let the last
		// store be a whole word like the rest.
		dst = slices.Grow(dst, 5*n+8)
		out, j := dst[len(dst):cap(dst)], 0
		for _, b := range run[:n] {
			binary.LittleEndian.PutUint64(out[j:], u8[b])
			j += int(u8[b] >> 56)
		}
		var err error
		if dst, err = e.drain(dst[:len(dst)+j]); err != nil {
			return nil, err
		}
		run = run[n:]
	}
	return dst, nil
}

// appendValue emits a kind tag before every value so that values of
// different shapes can never collide byte-wise ("1" the int, "1" the
// string and [1] the slice all encode distinctly), and length-prefixes
// everything variable-sized so no separator can be forged from data.
func (e *encoder) appendValue(dst []byte, v reflect.Value) ([]byte, error) {
	if !v.IsValid() {
		return append(dst, 'z', ';'), nil // untyped nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 'b', '1', ';'), nil
		}
		return append(dst, 'b', '0', ';'), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, v.Int(), 10)
		return append(dst, ';'), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst = append(dst, 'u')
		dst = strconv.AppendUint(dst, v.Uint(), 10)
		return append(dst, ';'), nil
	case reflect.Float32, reflect.Float64:
		// Hex float literals are exact for every finite value and spell
		// the infinities out; all NaN payloads collapse to "NaN", which
		// is fine for content addressing (a NaN-bearing spec is already
		// degenerate — it only must hash consistently).
		dst = append(dst, 'f')
		dst = strconv.AppendFloat(dst, v.Float(), 'x', -1, 64)
		return append(dst, ';'), nil
	case reflect.String:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(v.Len()), 10)
		dst = append(dst, ':')
		return append(append(dst, v.String()...), ';'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, 'n', ';'), nil
		}
		dst = append(dst, 'p')
		return e.appendValue(dst, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(dst, 'n', ';'), nil
		}
		dst = append(dst, 'a')
		return e.appendValue(dst, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			// A nil slice and an empty slice mean the same experiment.
			dst = append(dst, 'l', '0', ';')
			return dst, nil
		}
		fallthrough
	case reflect.Array:
		dst = append(dst, 'l')
		dst = strconv.AppendInt(dst, int64(v.Len()), 10)
		dst = append(dst, ';')
		// v.Bytes needs a slice or an array it can address; any other
		// array goes element by element, to the same bytes.
		if v.Type().Elem().Kind() == reflect.Uint8 && (v.Kind() == reflect.Slice || v.CanAddr()) {
			return e.appendBytes(dst, v.Bytes())
		}
		var err error
		for i := 0; i < v.Len(); i++ {
			if dst, err = e.appendValue(dst, v.Index(i)); err != nil {
				return nil, err
			}
			if dst, err = e.drain(dst); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case reflect.Struct:
		t := v.Type()
		if e.split && t == reflect.TypeOf(Hole{}) {
			e.holes, e.holeAt = e.holes+1, len(dst)
			return dst, nil
		}
		dst = append(dst, 't')
		dst = append(dst, '{')
		var err error
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			dst = strconv.AppendInt(dst, int64(len(f.Name)), 10)
			dst = append(dst, ':')
			dst = append(dst, f.Name...)
			if dst, err = e.appendValue(dst, v.Field(i)); err != nil {
				return nil, err
			}
			if dst, err = e.drain(dst); err != nil {
				return nil, err
			}
		}
		return append(dst, '}'), nil
	case reflect.Map:
		// Maps iterate in random order; canonicalise by sorting the
		// entries on their encoded keys — each encoded whole, by an encoder
		// of its own, whatever e streams to.
		var sub encoder
		dst = append(dst, 'm')
		dst = strconv.AppendInt(dst, int64(v.Len()), 10)
		dst = append(dst, ';')
		type kv struct{ k, kv []byte }
		entries := make([]kv, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			ek, err := sub.appendValue(nil, iter.Key())
			if err != nil {
				return nil, err
			}
			ekv, err := sub.appendValue(ek[:len(ek):len(ek)], iter.Value())
			if err != nil {
				return nil, err
			}
			entries = append(entries, kv{ek, ekv})
		}
		sort.Slice(entries, func(i, j int) bool {
			return string(entries[i].k) < string(entries[j].k)
		})
		for _, e := range entries {
			dst = append(dst, e.kv...)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("canon: %s has no canonical encoding", v.Kind())
	}
}
