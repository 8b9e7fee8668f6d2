package canon

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

type inner struct {
	Name string
	Val  float64
}

type outer struct {
	A   int
	B   uint64
	C   bool
	S   []inner
	P   *inner
	M   map[string]int
	F   float64
	hid int // unexported: must not affect the encoding
}

func enc(t *testing.T, v any) []byte {
	t.Helper()
	b, err := Append(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEqualValuesEncodeEqually(t *testing.T) {
	mk := func() outer {
		return outer{
			A: -3, B: 1 << 60, C: true,
			S: []inner{{"x", 1.5}, {"y", math.Inf(1)}},
			P: &inner{"p", -0.25},
			M: map[string]int{"k1": 1, "k2": 2, "k3": 3},
			F: 19.000000000000004,
		}
	}
	a, b := enc(t, mk()), enc(t, mk())
	if !bytes.Equal(a, b) {
		t.Fatalf("equal values encoded differently:\n%q\n%q", a, b)
	}
}

func TestEncodingIgnoresGobHistory(t *testing.T) {
	before := enc(t, outer{A: 1})
	// Churn gob's process-global type-ID counter, which made gob-based
	// content keys history-dependent.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(outer{A: 1}); err != nil {
		t.Fatal(err)
	}
	if after := enc(t, outer{A: 1}); !bytes.Equal(before, after) {
		t.Fatalf("encoding moved after unrelated gob use:\n%q\n%q", before, after)
	}
}

func TestDistinguishesValues(t *testing.T) {
	seen := map[string]string{}
	for name, v := range map[string]any{
		"int-1":       1,
		"uint-1":      uint(1),
		"string-1":    "1",
		"float-1":     1.0,
		"bool":        true,
		"slice-1":     []int{1},
		"nil-ptr":     (*inner)(nil),
		"ptr":         &inner{},
		"neg-zero":    math.Copysign(0, -1),
		"pos-zero":    0.0,
		"inf":         math.Inf(1),
		"neg-inf":     math.Inf(-1),
		"empty-s":     "",
		"struct-zero": inner{},
	} {
		e := string(enc(t, v))
		if prev, dup := seen[e]; dup {
			t.Fatalf("%s and %s collide: %q", name, prev, e)
		}
		seen[e] = name
	}
}

func TestStringsCannotForgeStructure(t *testing.T) {
	// A string containing encoding syntax must not collide with the
	// structure it mimics.
	a := enc(t, []string{"ab", "c"})
	b := enc(t, []string{"a", "bc"})
	if bytes.Equal(a, b) {
		t.Fatalf("length prefixes failed: %q", a)
	}
}

func TestMapOrderCanonical(t *testing.T) {
	// Build the same map with different insertion orders.
	m1 := map[string]int{}
	m2 := map[string]int{}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, k := range keys {
		m1[k] = i
	}
	for i := len(keys) - 1; i >= 0; i-- {
		m2[keys[i]] = i
	}
	if !bytes.Equal(enc(t, m1), enc(t, m2)) {
		t.Fatal("map encoding depends on insertion order")
	}
}

func TestNaNCollapses(t *testing.T) {
	quiet := math.NaN()
	payload := math.Float64frombits(math.Float64bits(quiet) ^ 1)
	if !bytes.Equal(enc(t, quiet), enc(t, payload)) {
		t.Fatal("NaN payloads must hash alike")
	}
}

func TestUnsupportedKindErrors(t *testing.T) {
	if _, err := Append(nil, func() {}); err == nil {
		t.Fatal("func encoded without error")
	}
	if _, err := Append(nil, outer{}); err != nil {
		t.Fatalf("plain struct rejected: %v", err)
	}
	type bad struct{ C chan int }
	if _, err := Append(nil, bad{}); err == nil {
		t.Fatal("chan field encoded without error")
	}
}

// TestGolden pins the byte format: cache keys, job IDs and report merge
// digests are all derived from these bytes, so an accidental format
// change silently invalidates every stored digest. Change this golden
// only deliberately, together with a note in DESIGN.md.
func TestGolden(t *testing.T) {
	v := outer{
		A: 7, B: 9, C: true,
		S: []inner{{"x", 0.5}},
		M: map[string]int{"b": 2, "a": 1},
		F: math.Inf(1),
	}
	const want = "t{1:Ai7;1:Bu9;1:Cb1;1:Sl1;t{4:Names1:x;3:Valf0x1p-01;}1:Pn;1:Mm2;s1:a;i1;s1:b;i2;1:Ff+Inf;}"
	if got := string(enc(t, v)); got != want {
		t.Fatalf("canonical format drifted:\ngot  %q\nwant %q", got, want)
	}
}

// refBytes is the format's definition for a run of bytes: the list header,
// then every element through appendValue on its own reflect.Value — the
// only path there was before appendBytes. The fast path must write exactly
// these bytes, or every voxel job's key, ID and cached result moves.
func refBytes(t *testing.T, run []byte) []byte {
	t.Helper()
	var e encoder
	dst := append(strconv.AppendInt([]byte{'l'}, int64(len(run)), 10), ';')
	for i := range run {
		var err error
		if dst, err = e.appendValue(dst, reflect.ValueOf(run[i])); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

type label uint8
type labels []label

func TestByteRunsEncodeAsTheirElements(t *testing.T) {
	check := func(run []byte) bool {
		want := refBytes(t, run)
		named := make(labels, len(run))
		var arr [37]uint8
		for i, b := range run {
			named[i] = label(b)
		}
		n := copy(arr[:], run)
		wantArr := refBytes(t, arr[:])
		var streamed bytes.Buffer
		if err := Write(&streamed, run); err != nil {
			t.Fatal(err)
		}
		ok := bytes.Equal(enc(t, run), want) &&
			bytes.Equal(enc(t, named), want) &&
			bytes.Equal(streamed.Bytes(), want) &&
			bytes.Equal(enc(t, &arr)[1:], wantArr) && // addressable through the pointer: 'p' + fast path
			bytes.Equal(enc(t, arr), wantArr) // a copy in an interface is not: element by element
		// Inside a struct, after other fields, with a prefix already in dst.
		inStruct := enc(t, struct {
			A int
			L []byte
		}{A: n, L: run})
		return ok && bytes.HasSuffix(inStruct, append(append([]byte("1:L"), want...), '}'))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	// Every table entry, a nil and an empty run, and one long enough that
	// Write hands its sink several blocks.
	long := bytes.Repeat(all, 3*blockSize/256)
	for _, run := range [][]byte{all, nil, {}, long} {
		if !check(run) {
			t.Fatalf("byte run of %d encodes differently from its elements", len(run))
		}
	}
}

// chunkCounter records the sizes of the writes it is handed.
type chunkCounter struct{ writes, most int }

func (c *chunkCounter) Write(p []byte) (int, error) {
	c.writes++
	c.most = max(c.most, len(p))
	return len(p), nil
}

func TestWriteStreamsInBoundedBlocks(t *testing.T) {
	v := struct {
		L []byte
		S []inner
	}{L: make([]byte, 1<<20), S: make([]inner, 50000)}
	var c chunkCounter
	if err := Write(&c, &v); err != nil {
		t.Fatal(err)
	}
	if c.writes < 10 || c.most > 3*blockSize {
		t.Fatalf("Write handed its sink %d writes, the largest %d bytes (block %d)", c.writes, c.most, blockSize)
	}
}

func TestSplitCutsAtTheHole(t *testing.T) {
	type tuple struct {
		A string
		V *inner
		B int
	}
	type holed struct {
		A string
		V Hole
		B int
	}
	for _, v := range []*inner{nil, {"x", 1.5}} {
		before, after, err := Split(&holed{A: "a", B: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := append(append(before, enc(t, v)...), after...)
		// The struct's name is not part of the encoding; its field names are.
		if want := enc(t, &tuple{A: "a", V: v, B: 2}); !bytes.Equal(got, want) {
			t.Fatalf("spliced %q\nwhole   %q", got, want)
		}
	}
	if _, _, err := Split(&tuple{}); err == nil {
		t.Fatal("Split without a Hole succeeded")
	}
	if _, _, err := Split(&struct{ X, Y Hole }{}); err == nil {
		t.Fatal("Split with two Holes succeeded")
	}
	if _, _, err := Split(map[string]Hole{"k": {}}); err == nil {
		t.Fatal("Split with the Hole inside a map succeeded")
	}
	// Outside Split a Hole is the empty struct it looks like.
	if got := string(enc(t, struct{ V Hole }{})); got != "t{1:Vt{}}" {
		t.Fatalf("Append of a Hole wrote %q", got)
	}
}
