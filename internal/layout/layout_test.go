package layout

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wire"
)

func TestSegmentSizePaperFormula(t *testing.T) {
	s := DefaultSizing()
	mb := int64(1 << 20)
	cases := []struct {
		i    int
		want int64
	}{
		{0, 1 * mb}, {7, 1 * mb}, // 8^0
		{8, 8 * mb}, {15, 8 * mb}, // 8^1
		{16, 64 * mb}, {23, 64 * mb}, // 8^2
		{24, 512 * mb}, // 8^3 = 512, at cap
		{100, 512 * mb},
	}
	for _, c := range cases {
		if got := s.SegmentSize(c.i); got != c.want {
			t.Errorf("SegmentSize(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestGroupSegmentSizePaperFormula(t *testing.T) {
	s := DefaultSizing()
	mb := int64(1 << 20)
	// With group size j=4: group g segment size = min{512, 8^⌊4g/8⌋} MB.
	cases := []struct {
		g    int
		want int64
	}{
		{0, 1 * mb}, {1, 1 * mb}, {2, 8 * mb}, {3, 8 * mb}, {4, 64 * mb}, {6, 512 * mb}, {50, 512 * mb},
	}
	for _, c := range cases {
		if got := s.GroupSegmentSize(c.g, 4); got != c.want {
			t.Errorf("GroupSegmentSize(%d,4) = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestScaledSizingFloor(t *testing.T) {
	s := ScaledSizing(1 << 30)
	if s.Unit < 4096 {
		t.Errorf("scaled unit = %d, want floor 4096", s.Unit)
	}
}

func tinySizing() Sizing {
	// 1 "MB" = 16 bytes, cap 512 units, so segment capacities are
	// 16,16,…(×8),128,… — convenient for tests.
	return Sizing{Unit: 16, Max: 512, Base: 8, Period: 8}
}

func TestNewIndexLinearStartsAttached(t *testing.T) {
	idx, err := NewIndex(wire.DefaultAttrs(), tinySizing(), ids.New)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.IsAttached() {
		t.Error("new linear index not attached")
	}
}

func TestNewIndexStripedRequiresSize(t *testing.T) {
	attrs := wire.DefaultAttrs()
	attrs.Mode = wire.Striped
	attrs.StripeCount = 4
	attrs.StripeUnit = 16
	if _, err := NewIndex(attrs, tinySizing(), ids.New); !errors.Is(err, ErrNeedSize) {
		t.Fatalf("err = %v, want ErrNeedSize", err)
	}
	attrs.DeclaredSize = 1000
	idx, err := NewIndex(attrs, tinySizing(), ids.New)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segs) != 4 {
		t.Fatalf("striped segs = %d", len(idx.Segs))
	}
	if idx.Segs[0].Size != 250 {
		t.Errorf("per-segment size = %d, want 250", idx.Segs[0].Size)
	}
}

func TestNewIndexHybridRequiresStripeParams(t *testing.T) {
	attrs := wire.DefaultAttrs()
	attrs.Mode = wire.Hybrid
	if _, err := NewIndex(attrs, tinySizing(), ids.New); !errors.Is(err, ErrBadStripe) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinearPlanAndMapRoundTrip(t *testing.T) {
	attrs := wire.DefaultAttrs()
	idx, _ := NewIndex(attrs, tinySizing(), ids.New)
	idx.HasAttached, idx.Attached = false, nil // force segment mode
	// Write 100 bytes: capacities 16×8=128, so needs 7 segments.
	pieces, err := idx.Plan(0, 100, ids.New)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segs) != 7 {
		t.Fatalf("segments = %d, want 7", len(idx.Segs))
	}
	var total int64
	for _, p := range pieces {
		total += p.N
	}
	if total != 100 || idx.Size != 100 {
		t.Fatalf("planned %d bytes, size %d", total, idx.Size)
	}
	// Map the middle range and check piece continuity.
	got, err := idx.Map(20, 50)
	if err != nil {
		t.Fatal(err)
	}
	cursor := int64(20)
	for _, p := range got {
		wantSeg := int(cursor / 16)
		if p.SegIdx != wantSeg || p.Off != cursor%16 {
			t.Fatalf("piece %+v at logical %d", p, cursor)
		}
		cursor += p.N
	}
	if cursor != 70 {
		t.Fatalf("mapped up to %d, want 70", cursor)
	}
}

func TestMapBeyondEOF(t *testing.T) {
	idx, _ := NewIndex(wire.DefaultAttrs(), tinySizing(), ids.New)
	idx.HasAttached, idx.Attached = false, nil
	idx.Plan(0, 10, ids.New)
	if _, err := idx.Map(5, 10); !errors.Is(err, ErrBeyondEOF) {
		t.Fatalf("err = %v", err)
	}
}

func TestStripedMapping(t *testing.T) {
	attrs := wire.FileAttrs{Mode: wire.Striped, StripeCount: 4, StripeUnit: 16, DeclaredSize: 256, ReplDeg: 1}
	idx, err := NewIndex(attrs, tinySizing(), ids.New)
	if err != nil {
		t.Fatal(err)
	}
	pieces, err := idx.Plan(0, 256, ids.New)
	if err != nil {
		t.Fatal(err)
	}
	// 256 bytes over 4 segs, unit 16: each segment gets 4 units of 16 bytes.
	perSeg := make(map[int]int64)
	for _, p := range pieces {
		perSeg[p.SegIdx] += p.N
	}
	for i := 0; i < 4; i++ {
		if perSeg[i] != 64 {
			t.Errorf("segment %d got %d bytes, want 64", i, perSeg[i])
		}
	}
	// Offset 16 must land in segment 1 at offset 0.
	got, _ := idx.Map(16, 8)
	if len(got) != 1 || got[0].SegIdx != 1 || got[0].Off != 0 || got[0].N != 8 {
		t.Errorf("Map(16,8) = %+v", got)
	}
	// Offset 64 wraps to segment 0, row 1 (segment offset 16).
	got, _ = idx.Map(64, 8)
	if len(got) != 1 || got[0].SegIdx != 0 || got[0].Off != 16 {
		t.Errorf("Map(64,8) = %+v", got)
	}
}

func TestStripedCannotGrowBeyondDeclared(t *testing.T) {
	attrs := wire.FileAttrs{Mode: wire.Striped, StripeCount: 2, StripeUnit: 16, DeclaredSize: 64, ReplDeg: 1}
	idx, _ := NewIndex(attrs, tinySizing(), ids.New)
	if _, err := idx.Plan(0, 100, ids.New); !errors.Is(err, ErrBeyondEOF) {
		t.Fatalf("err = %v", err)
	}
}

func TestHybridGrowsByGroups(t *testing.T) {
	attrs := wire.FileAttrs{Mode: wire.Hybrid, StripeCount: 4, StripeUnit: 16, ReplDeg: 1}
	idx, err := NewIndex(attrs, tinySizing(), ids.New)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0: 4 segs × 16 bytes = 64 byte capacity. Writing 100 bytes
	// needs two groups (group 1 also 16-byte segs → total 128).
	if _, err := idx.Plan(0, 100, ids.New); err != nil {
		t.Fatal(err)
	}
	if len(idx.Segs) != 8 {
		t.Fatalf("segments = %d, want 8 (two groups of 4)", len(idx.Segs))
	}
	// Byte 64 begins group 1: segment 4 offset 0.
	got, _ := idx.Map(64, 8)
	if len(got) != 1 || got[0].SegIdx != 4 || got[0].Off != 0 {
		t.Errorf("Map(64,8) = %+v", got)
	}
}

func TestAttachedSpillsOnGrowth(t *testing.T) {
	idx, _ := NewIndex(wire.DefaultAttrs(), DefaultSizing(), ids.New)
	pieces, err := idx.Plan(0, 100, ids.New)
	if err != nil || pieces != nil {
		t.Fatalf("small write should stay attached: %v %v", pieces, err)
	}
	if !idx.IsAttached() {
		t.Fatal("spilled too early")
	}
	pieces, err = idx.Plan(0, MaxAttach+1, ids.New)
	if err != nil {
		t.Fatal(err)
	}
	if idx.IsAttached() || len(pieces) == 0 {
		t.Error("large write did not spill to segments")
	}
}

func TestPlanNegativeRange(t *testing.T) {
	idx, _ := NewIndex(wire.DefaultAttrs(), tinySizing(), ids.New)
	if _, err := idx.Plan(-1, 5, ids.New); err == nil {
		t.Error("negative offset accepted")
	}
}

// TestMappingCoversRangeExactly property-tests that for any mode and any
// in-bounds range, the returned pieces cover the range exactly once and in
// order, with every piece inside its segment's capacity.
func TestMappingCoversRangeExactly(t *testing.T) {
	modes := []wire.FileAttrs{
		{Mode: wire.Linear, ReplDeg: 1, Alpha: 0.5},
		{Mode: wire.Striped, StripeCount: 3, StripeUnit: 8, DeclaredSize: 2000, ReplDeg: 1},
		{Mode: wire.Hybrid, StripeCount: 3, StripeUnit: 8, ReplDeg: 1},
	}
	for _, attrs := range modes {
		attrs := attrs
		idx, err := NewIndex(attrs, tinySizing(), ids.New)
		if err != nil {
			t.Fatal(err)
		}
		idx.HasAttached, idx.Attached = false, nil
		if _, err := idx.Plan(0, 2000, ids.New); err != nil {
			t.Fatalf("%v: %v", attrs.Mode, err)
		}
		f := func(offRaw, nRaw uint16) bool {
			off := int64(offRaw) % 2000
			n := int64(nRaw) % (2000 - off)
			pieces, err := idx.Map(off, n)
			if err != nil {
				return false
			}
			var total int64
			for _, p := range pieces {
				if p.SegIdx < 0 || p.SegIdx >= len(idx.Segs) || p.N <= 0 || p.Off < 0 {
					return false
				}
				if p.Off+p.N > idx.SegCapacity(p.SegIdx) {
					return false
				}
				total += p.N
			}
			return total == n
		}
		cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("mode %v: %v", attrs.Mode, err)
		}
	}
}

// TestLinearWriteReadSimulation plays random writes through Plan against a
// naive flat file and verifies Map-based reads reconstruct the same bytes.
func TestLinearWriteReadSimulation(t *testing.T) {
	idx, _ := NewIndex(wire.DefaultAttrs(), tinySizing(), ids.New)
	idx.HasAttached, idx.Attached = false, nil
	segData := make(map[int][]byte)
	writePiece := func(p Piece, data []byte) {
		buf := segData[p.SegIdx]
		if int64(len(buf)) < p.Off+p.N {
			nb := make([]byte, p.Off+p.N)
			copy(nb, buf)
			buf = nb
		}
		copy(buf[p.Off:p.Off+p.N], data)
		segData[p.SegIdx] = buf
	}
	rng := rand.New(rand.NewSource(42))
	flat := make([]byte, 0, 4096)
	for step := 0; step < 100; step++ {
		off := int64(rng.Intn(1500))
		n := int64(rng.Intn(200) + 1)
		data := make([]byte, n)
		rng.Read(data)
		pieces, err := idx.Plan(off, n, ids.New)
		if err != nil {
			t.Fatal(err)
		}
		cursor := int64(0)
		for _, p := range pieces {
			writePiece(p, data[cursor:cursor+p.N])
			cursor += p.N
		}
		if end := off + n; int64(len(flat)) < end {
			nb := make([]byte, end)
			copy(nb, flat)
			flat = nb
		}
		copy(flat[off:off+n], data)
	}
	// Read everything back.
	pieces, err := idx.Map(0, idx.Size)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, idx.Size)
	for _, p := range pieces {
		buf := segData[p.SegIdx]
		chunk := make([]byte, p.N)
		if int64(len(buf)) > p.Off {
			copy(chunk, buf[p.Off:min64(p.Off+p.N, int64(len(buf)))])
		}
		got = append(got, chunk...)
	}
	if len(got) != len(flat) {
		t.Fatalf("read %d bytes, want %d", len(got), len(flat))
	}
	for i := range got {
		if got[i] != flat[i] {
			t.Fatalf("byte %d differs: %d vs %d", i, got[i], flat[i])
		}
	}
}
