package layout

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// seqIDs returns a generator of the segment IDs 01 00…, 02 00…, ….
func seqIDs() func() ids.SegID {
	var n byte
	return func() ids.SegID { n++; return ids.SegID{n} }
}

// goldenIndexes are the four index shapes with their pinned encodings: a
// change to these bytes is a format change and needs a new format byte.
var goldenIndexes = []struct {
	name  string
	build func() *Index
	hex   string
}{
	{"attached-linear", func() *Index {
		idx, _ := NewIndex(wire.DefaultAttrs(), DefaultSizing(), seqIDs())
		idx.Attached = []byte("small file")
		return idx
	},
		"0100000000000000000000000000000000000000000000000000000000000000" +
			"100000000000000200000000000008000000000000000800000000000000010a" +
			"000000736d616c6c2066696c65"},
	{"segmented-linear", func() *Index {
		idx, _ := NewIndex(wire.DefaultAttrs(), tinySizing(), seqIDs())
		idx.HasAttached, idx.Attached = false, nil // as after a spill
		idx.Plan(0, 40, seqIDs())
		idx.Segs[0].Version = 3
		return idx
	},
		"0100280000000000000003000000010000000000000000000000000000000300" +
			"0000000000001000000000000000020000000000000000000000000000000000" +
			"0000000000001000000000000000030000000000000000000000000000000000" +
			"0000000000000800000000000000000000000000000000000000000000001000" +
			"0000000000000002000000000000080000000000000008000000000000000000" +
			"000000"},
	{"striped", func() *Index {
		attrs := wire.FileAttrs{Mode: wire.Striped, StripeCount: 2, StripeUnit: 32, DeclaredSize: 200}
		idx, _ := NewIndex(attrs, tinySizing(), seqIDs())
		idx.Plan(0, 150, nil)
		idx.Segs[1].Version = 7
		return idx
	},
		"0101960000000000000002000000010000000000000000000000000000000000" +
			"0000000000006400000000000000020000000000000000000000000000000700" +
			"0000000000006400000000000000020000000000000020000000000000001000" +
			"0000000000000002000000000000080000000000000008000000000000000000" +
			"000000"},
	{"hybrid", func() *Index {
		attrs := wire.FileAttrs{Mode: wire.Hybrid, StripeCount: 2, StripeUnit: 8}
		idx, _ := NewIndex(attrs, tinySizing(), seqIDs())
		idx.Plan(0, 40, seqIDs())
		return idx
	},
		"0102280000000000000004000000010000000000000000000000000000000000" +
			"0000000000001000000000000000020000000000000000000000000000000000" +
			"0000000000001000000000000000030000000000000000000000000000000000" +
			"0000000000000800000000000000040000000000000000000000000000000000" +
			"0000000000000000000000000000020000000000000008000000000000001000" +
			"0000000000000002000000000000080000000000000008000000000000000000" +
			"000000"},
}

func TestIndexGoldenBytes(t *testing.T) {
	for _, g := range goldenIndexes {
		idx := g.build()
		enc := idx.Encode()
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", g.name, got, g.hex)
		}
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(want)
		if err != nil {
			t.Errorf("%s: Decode(golden): %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(dec, idx) {
			t.Errorf("%s: golden decodes to\n%+v\nwant\n%+v", g.name, dec, idx)
		}
	}
}

// randomIndex builds a valid index the way the client does: NewIndex for a
// random mode, then a few Plans (or attached bytes).
func randomIndex(rng *rand.Rand) *Index {
	attrs := wire.FileAttrs{Mode: wire.LayoutMode(rng.Intn(3)), StripeCount: 1 + rng.Intn(4),
		StripeUnit: 8 << rng.Intn(4), DeclaredSize: 1 + rng.Int63n(5000)}
	idx, err := NewIndex(attrs, tinySizing(), ids.New)
	if err != nil {
		panic(err)
	}
	if attrs.Mode == wire.Linear && rng.Intn(2) == 0 {
		if n := rng.Intn(200); n > 0 {
			idx.Attached = make([]byte, n)
			rng.Read(idx.Attached)
		} else {
			idx.Attached = nil // a zero length decodes as nil
		}
		return idx
	}
	idx.HasAttached, idx.Attached = false, nil
	for k := rng.Intn(4); k >= 0; k-- {
		idx.Plan(rng.Int63n(attrs.DeclaredSize), 1, ids.New) // Striped may refuse; fine
	}
	for i := range idx.Segs {
		idx.Segs[i].Version = rng.Uint64()
	}
	return idx
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		idx := randomIndex(rng)
		enc := idx.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("trial %d: %v\n%+v", trial, err, idx)
		}
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("trial %d: round trip changed the index:\nin  %+v\nout %+v", trial, idx, got)
		}
		if re := got.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("trial %d: re-encoding differs", trial)
		}
	}
}

func TestDecodeCopiesAttached(t *testing.T) {
	// The client grows and overwrites Attached in place, while the payload it
	// decoded may alias a provider's committed bytes on the simulated fabric.
	enc := goldenIndexes[0].build().Encode()
	idx, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	idx.Attached[0] ^= 0xFF
	if again, _ := Decode(enc); again.Attached[0] == idx.Attached[0] {
		t.Error("Decode aliases its input")
	}
}

func TestDecodeRejectsEveryPrefix(t *testing.T) {
	for _, g := range goldenIndexes {
		enc := g.build().Encode()
		for n := 0; n < len(enc); n++ {
			if _, err := Decode(enc[:n]); !errors.Is(err, ErrBadIndex) {
				t.Fatalf("%s: %d-byte prefix of %d: err = %v", g.name, n, len(enc), err)
			}
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not an index")); !errors.Is(err, ErrBadIndex) {
		t.Errorf("garbage: err = %v", err)
	}
	le := binary.LittleEndian
	attached, linear, striped, hybrid := 0, 1, 2, 3
	// Offsets into the fixed tail, which starts after the segment list.
	tail := func(b []byte) []byte { return b[indexHead+int(le.Uint32(b[10:]))*segRefSize:] }
	zero64 := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { le.PutUint64(tail(b)[off:], 0); return b }
	}
	cases := []struct {
		name   string
		shape  int
		mutate func([]byte) []byte
	}{
		{"format byte", attached, func(b []byte) []byte { b[0] = 2; return b }},
		{"format byte zero", attached, func(b []byte) []byte { b[0] = 0; return b }},
		{"mode out of range", linear, func(b []byte) []byte { b[1] = 3; return b }},
		{"sizing unit zero", linear, zero64(16)},
		{"sizing max zero", linear, zero64(24)},
		{"sizing base zero", linear, zero64(32)},
		{"sizing period zero", linear, zero64(40)},
		{"sizing period negative", linear, func(b []byte) []byte {
			le.PutUint64(tail(b)[40:], ^uint64(0))
			return b
		}},
		{"striped without stripe count", striped, zero64(0)},
		{"striped without stripe unit", striped, zero64(8)},
		{"hybrid without stripe count", hybrid, zero64(0)},
		{"hybrid without stripe unit", hybrid, zero64(8)},
		{"segment count beyond the payload", linear, func(b []byte) []byte {
			le.PutUint32(b[10:], 1<<31)
			return b
		}},
		{"segment count one too many", linear, func(b []byte) []byte {
			le.PutUint32(b[10:], le.Uint32(b[10:])+1)
			return b
		}},
		{"presence byte", linear, func(b []byte) []byte { tail(b)[48] = 2; return b }},
		{"attached length short", attached, func(b []byte) []byte {
			le.PutUint32(tail(b)[49:], 3)
			return b
		}},
		{"attached length long", attached, func(b []byte) []byte {
			le.PutUint32(tail(b)[49:], 1<<20)
			return b
		}},
		{"trailing byte", linear, func(b []byte) []byte { return append(b, 0) }},
		{"attached beyond MaxAttach", attached, func(b []byte) []byte {
			idx, _ := Decode(b)
			idx.Attached = make([]byte, MaxAttach+1)
			return idx.Encode()
		}},
		{"attached with segments", linear, func(b []byte) []byte { tail(b)[48] = 1; return b }},
	}
	for _, c := range cases {
		enc := c.mutate(goldenIndexes[c.shape].build().Encode())
		if _, err := Decode(enc); !errors.Is(err, ErrBadIndex) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// FuzzIndexDecode asserts Decode never panics on arbitrary input and that
// the format is canonical: anything accepted re-encodes to the same bytes.
func FuzzIndexDecode(f *testing.F) {
	for _, g := range goldenIndexes {
		b, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := Decode(data)
		if err != nil {
			return
		}
		if re := idx.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical:\nin  %x\nout %x", data, re)
		}
	})
}

var (
	sinkBytes []byte
	sinkIndex *Index
)

// BenchmarkIndexCodec is the per-open (decode) and per-commit (encode) cost
// of the index segment of a 12 KiB attached file, the small-file hot path.
func BenchmarkIndexCodec(b *testing.B) {
	idx, _ := NewIndex(wire.DefaultAttrs(), DefaultSizing(), ids.New)
	idx.Attached = bytes.Repeat([]byte{0xCD}, 12<<10)
	enc := idx.Encode()
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = idx.Encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if sinkIndex, err = Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
