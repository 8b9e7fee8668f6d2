package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestReader reads each input through one sequence of reads and holds the
// reader to the values they return, to what is left, and to its first
// failure.
func TestReader(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xFF}, MaxVarintLen+1)
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader) []any
		want []any
		left int
		err  string // a substring of the first failure; "" for none
	}{{
		name: "every primitive round-trips",
		in: AppendBool(AppendBool(AppendString(AppendBytes(AppendFloats(AppendFloat(AppendFixed64(
			AppendVarint(AppendUvarint([]byte{7}, 300), -5), 1<<60), -0.5), 1.5, math.Inf(1)),
			[]byte{1, 2}), "hi"), true), false),
		read: func(r *Reader) []any {
			fs := make([]float64, 2)
			v := []any{r.Byte(), r.Uvarint(), r.Varint(), r.Fixed64(), r.Float()}
			r.Floats(fs)
			return append(v, fs[0], fs[1], string(r.Bytes()), r.Text(), r.Bool(), r.Bool())
		},
		want: []any{byte(7), uint64(300), int64(-5), uint64(1 << 60), -0.5, 1.5, math.Inf(1), "\x01\x02", "hi", true, false},
	}, {
		name: "a count within both bounds",
		in:   []byte{3, 'a', 'b', 'c'},
		read: func(r *Reader) []any { return []any{r.Count(3, "items")} },
		want: []any{3},
		left: 3,
	}, {
		name: "a count over its max",
		in:   []byte{4, 'a', 'b', 'c', 'd'},
		read: func(r *Reader) []any { return []any{r.Count(3, "items")} },
		want: []any{0},
		err:  "items 4, max 3",
	}, {
		name: "a count over the bytes left",
		in:   []byte{4, 'a', 'b', 'c'},
		read: func(r *Reader) []any { return []any{r.Count(10, "items")} },
		want: []any{0},
		err:  "items 4, 3 bytes left",
	}, {
		name: "a length may pass the bytes left, not its max",
		in:   []byte{200, 1, 9},
		read: func(r *Reader) []any { return []any{r.Length(200, "cells"), r.Length(8, "cells")} },
		want: []any{200, 0},
		err:  "cells 9, max 8",
	}, {
		name: "a truncated uvarint",
		in:   []byte{0x80, 0x80},
		read: func(r *Reader) []any { return []any{r.Uvarint()} },
		want: []any{uint64(0)},
		err:  "varint",
	}, {
		name: "an overlong uvarint",
		in:   overlong,
		read: func(r *Reader) []any { return []any{r.Uvarint()} },
		want: []any{uint64(0)},
		err:  "varint",
	}, {
		name: "an overlong length",
		in:   overlong,
		read: func(r *Reader) []any { return []any{r.Length(math.MaxInt, "cells")} },
		want: []any{0},
		err:  "varint",
	}, {
		name: "an overlong varint",
		in:   overlong,
		read: func(r *Reader) []any { return []any{r.Varint()} },
		want: []any{int64(0)},
		err:  "varint",
	}, {
		name: "a bool byte other than 0 or 1",
		in:   []byte{1, 2, 0},
		read: func(r *Reader) []any { return []any{r.Bool(), r.Bool(), r.Bool()} },
		want: []any{true, false, false},
		err:  "flag byte of 2",
	}, {
		name: "a bool past the end",
		in:   nil,
		read: func(r *Reader) []any { return []any{r.Bool()} },
		want: []any{false},
		err:  "truncated",
	}, {
		name: "bytes longer than what is left",
		in:   []byte{5, 'a', 'b'},
		read: func(r *Reader) []any { return []any{r.Bytes() == nil} },
		want: []any{true},
		err:  "bytes 5, 2 bytes left",
	}, {
		name: "floats past the end zero their slice",
		in:   AppendFloats(nil, 1, 2),
		read: func(r *Reader) []any {
			fs := []float64{9, 9, 9}
			r.Floats(fs)
			return []any{fs[0], fs[1], fs[2]}
		},
		want: []any{0.0, 0.0, 0.0},
		err:  "truncated",
	}, {
		name: "the first failure sticks and later reads are zero",
		in:   append([]byte{9, 2}, AppendString(AppendFloat(AppendVarint(nil, -3), 2.5), "x")...),
		read: func(r *Reader) []any {
			fs := []float64{4}
			n := r.Count(8, "items") // 9 > 8: fails here
			r.Failf("a later failure")
			v := []any{n, r.Byte(), r.Varint(), r.Float(), r.Text(), r.Bool(), r.Next(1) == nil, r.Rest() == nil}
			r.Floats(fs)
			return append(v, fs[0])
		},
		want: []any{0, byte(0), int64(0), 0.0, "", false, true, true, 0.0},
		err:  "items 9, max 8",
	}, {
		name: "Failf fails a reader that read well",
		in:   []byte{1, 2, 3},
		read: func(r *Reader) []any {
			v := r.Byte()
			r.Failf("byte %d is not allowed here", v)
			return []any{v, r.Byte()}
		},
		want: []any{byte(1), byte(0)},
		err:  "byte 1 is not allowed here",
	}, {
		name: "End refuses trailing bytes",
		in:   []byte{1, 2, 3},
		read: func(r *Reader) []any { return []any{r.Byte(), r.End() != nil} },
		want: []any{byte(1), true},
		err:  "2 trailing bytes",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in)
			got := tc.read(&r)
			if len(got) != len(tc.want) {
				t.Fatalf("read %d values, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("read %d: got %#v, want %#v", i, got[i], tc.want[i])
				}
			}
			if r.Len() != tc.left {
				t.Errorf("%d bytes left, want %d", r.Len(), tc.left)
			}
			switch err := r.Err(); {
			case tc.err == "" && err != nil:
				t.Errorf("failed: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Errorf("first failure %v, want one naming %q", err, tc.err)
			}
		})
	}
}

// TestReaderAliasesItsInput: Bytes, Next and Rest return windows of the
// input, not copies, capped so an append to one cannot write past it.
func TestReaderAliasesItsInput(t *testing.T) {
	in := AppendBytes(nil, []byte("abc"))
	in = append(in, "defgh"...)
	r := NewReader(in)
	b, n, rest := r.Bytes(), r.Next(2), r.Rest()
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if string(b) != "abc" || string(n) != "de" || string(rest) != "fgh" {
		t.Fatalf("read %q %q %q", b, n, rest)
	}
	for _, w := range []struct {
		name string
		p    []byte
		at   int
	}{{"Bytes", b, 1}, {"Next", n, 4}, {"Rest", rest, 6}} {
		if &w.p[0] != &in[w.at] {
			t.Errorf("%s copied its bytes", w.name)
		}
	}
	if cap(b) != len(b) || cap(n) != len(n) {
		t.Errorf("Bytes and Next have room past their window: cap %d and %d", cap(b), cap(n))
	}
}

// TestReaderCopyReadsOnItsOwn: a copy of a Reader reads on from where the
// original stands without moving it — what a dry run over a payload uses.
func TestReaderCopyReadsOnItsOwn(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	dry := r
	if dry.Byte() != 2 || dry.Byte() != 3 || dry.Len() != 0 {
		t.Fatal("the copy did not read on from the original's place")
	}
	if r.Len() != 2 || r.Byte() != 2 {
		t.Fatal("reading the copy moved the original")
	}
}
