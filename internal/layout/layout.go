// Package layout implements Sorrento's file data organization (paper §3.2):
// a logical file is a linear byte array split into variable-length data
// segments arranged in Linear, Striped, or Hybrid mode, described by an
// index segment. The package provides the segment sizing formula, the
// byte-range ↔ segment mapping for reads and growth planning for writes,
// index segment encoding, and small-file attachment.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/wire"
)

// MaxAttach is the largest file payload attached directly inside the index
// segment (paper: 60 KB, chosen to fit a UDP packet).
const MaxAttach = 60 << 10

// Sizing parameterizes the segment-size formula. The paper's rule for the
// i-th Linear segment (i from 0) is min{512, 8^⌊i/8⌋} MB; benchmarks scale
// Unit and Max down while keeping the same progression.
type Sizing struct {
	Unit   int64 // bytes per "MB" in the formula (paper: 1 MiB)
	Max    int64 // cap in Units (paper: 512)
	Base   int64 // growth base (paper: 8)
	Period int   // segments per growth step (paper: 8)
}

// DefaultSizing is the paper's formula at full scale.
func DefaultSizing() Sizing {
	return Sizing{Unit: 1 << 20, Max: 512, Base: 8, Period: 8}
}

// ScaledSizing divides the byte sizes by factor while keeping the shape of
// the progression; used by benchmarks that scale data 1/64–1/1024.
func ScaledSizing(factor int64) Sizing {
	s := DefaultSizing()
	s.Unit /= factor
	if s.Unit < 4096 {
		s.Unit = 4096
	}
	return s
}

// SegmentSize returns the capacity in bytes of the i-th Linear segment:
// min{Max, Base^⌊i/Period⌋} × Unit.
func (s Sizing) SegmentSize(i int) int64 {
	return s.clampPow(int64(i) / int64(s.Period))
}

// GroupSegmentSize returns the capacity of each segment in the g-th Hybrid
// segment group of j segments: min{Max, Base^⌊g·j/Period⌋} × Unit.
func (s Sizing) GroupSegmentSize(g, j int) int64 {
	return s.clampPow(int64(g) * int64(j) / int64(s.Period))
}

func (s Sizing) clampPow(exp int64) int64 {
	size := int64(1)
	for k := int64(0); k < exp; k++ {
		size *= s.Base
		if size >= s.Max {
			return s.Max * s.Unit
		}
	}
	if size > s.Max {
		size = s.Max
	}
	return size * s.Unit
}

// SegRef names one data segment within an index.
type SegRef struct {
	ID      ids.SegID
	Version uint64
	Size    int64 // bytes currently stored in this segment
}

// Index is the content of an index segment: how the data segments compose
// the logical byte array. It is versioned and committed like any segment.
type Index struct {
	Mode        wire.LayoutMode
	Size        int64 // logical file size
	Segs        []SegRef
	StripeCount int   // Striped/Hybrid
	StripeUnit  int64 // Striped/Hybrid
	Sizing      Sizing
	// HasAttached marks the payload as attached inside the index (an empty
	// attached file and a segmented one both have no Attached bytes, so
	// presence needs an explicit flag).
	HasAttached bool
	// Attached holds the whole file payload for small files (≤ MaxAttach);
	// meaningful only when HasAttached is set, in which case Segs is empty.
	Attached []byte
}

// Piece is one contiguous run of a logical byte range within a single data
// segment.
type Piece struct {
	SegIdx int   // index into Index.Segs
	Off    int64 // offset within the segment
	N      int64 // length
}

// Layout errors.
var (
	ErrBeyondEOF   = errors.New("layout: range beyond end of file")
	ErrNeedSize    = errors.New("layout: striped mode requires a declared size")
	ErrBadStripe   = errors.New("layout: stripe parameters must be positive")
	ErrNotAttached = errors.New("layout: file has no attached payload")
	ErrBadIndex    = errors.New("layout: malformed index segment")
)

// NewIndex builds an empty index for the given attributes. Striped mode
// materializes its fixed segment set immediately (sizes must be declared);
// Linear and Hybrid grow on demand.
func NewIndex(attrs wire.FileAttrs, sizing Sizing, newID func() ids.SegID) (*Index, error) {
	idx := &Index{
		Mode:        attrs.Mode,
		StripeCount: attrs.StripeCount,
		StripeUnit:  attrs.StripeUnit,
		Sizing:      sizing,
	}
	switch attrs.Mode {
	case wire.Linear:
		// Small files start attached.
		idx.HasAttached = true
		idx.Attached = []byte{}
	case wire.Striped:
		if attrs.DeclaredSize <= 0 {
			return nil, ErrNeedSize
		}
		if attrs.StripeCount <= 0 || attrs.StripeUnit <= 0 {
			return nil, ErrBadStripe
		}
		per := (attrs.DeclaredSize + int64(attrs.StripeCount) - 1) / int64(attrs.StripeCount)
		for i := 0; i < attrs.StripeCount; i++ {
			idx.Segs = append(idx.Segs, SegRef{ID: newID(), Size: per})
		}
		idx.Size = 0 // logical size grows as data is written
	case wire.Hybrid:
		if attrs.StripeCount <= 0 || attrs.StripeUnit <= 0 {
			return nil, ErrBadStripe
		}
	default:
		return nil, fmt.Errorf("layout: unknown mode %v", attrs.Mode)
	}
	return idx, nil
}

// IsAttached reports whether the file payload lives inside the index.
func (x *Index) IsAttached() bool { return x.HasAttached }

// SegCapacity returns the capacity in bytes of segment i under the index's
// mode: the most it can ever hold.
func (x *Index) SegCapacity(i int) int64 {
	switch x.Mode {
	case wire.Linear:
		return x.Sizing.SegmentSize(i)
	case wire.Striped:
		return x.Segs[i].Size
	case wire.Hybrid:
		return x.Sizing.GroupSegmentSize(i/x.StripeCount, x.StripeCount)
	}
	return 0
}

// Map resolves the byte range [off, off+n) of a committed (non-attached)
// file into pieces. It fails when the range extends past the file size.
func (x *Index) Map(off, n int64) ([]Piece, error) {
	if off < 0 || n < 0 || off+n > x.Size {
		return nil, ErrBeyondEOF
	}
	if n == 0 {
		return nil, nil
	}
	if x.IsAttached() {
		return nil, ErrNotAttached
	}
	return x.mapRange(off, n), nil
}

// mapRange computes pieces without bounds checks (callers validate).
func (x *Index) mapRange(off, n int64) []Piece {
	var out []Piece
	switch x.Mode {
	case wire.Linear:
		var cum int64
		for i := range x.Segs {
			cap := x.SegCapacity(i)
			lo, hi := cum, cum+cap
			if off+n > lo && off < hi {
				a := max64(off, lo)
				b := min64(off+n, hi)
				out = append(out, Piece{SegIdx: i, Off: a - lo, N: b - a})
			}
			cum = hi
			if cum >= off+n {
				break
			}
		}
	case wire.Striped:
		out = stripePieces(off, n, 0, x.StripeCount, x.StripeUnit, 0)
	case wire.Hybrid:
		var cum int64
		for g := 0; ; g++ {
			segSize := x.Sizing.GroupSegmentSize(g, x.StripeCount)
			gcap := segSize * int64(x.StripeCount)
			lo, hi := cum, cum+gcap
			if off+n > lo && off < hi {
				a := max64(off, lo)
				b := min64(off+n, hi)
				out = append(out, stripePieces(a-lo, b-a, g*x.StripeCount, x.StripeCount, x.StripeUnit, 0)...)
			}
			cum = hi
			if cum >= off+n {
				break
			}
		}
	}
	return out
}

// stripePieces maps a byte range within one stripe group onto its segments.
// segBase is the index of the group's first segment in Index.Segs.
func stripePieces(off, n int64, segBase, count int, unit int64, _ int64) []Piece {
	var out []Piece
	rowBytes := unit * int64(count)
	for n > 0 {
		row := off / rowBytes
		within := off % rowBytes
		seg := int(within / unit)
		segOff := row*unit + within%unit
		run := unit - within%unit
		if run > n {
			run = n
		}
		out = append(out, Piece{SegIdx: segBase + seg, Off: segOff, N: run})
		off += run
		n -= run
	}
	return coalescePieces(out)
}

// coalescePieces merges adjacent pieces that continue in the same segment.
func coalescePieces(ps []Piece) []Piece {
	if len(ps) < 2 {
		return ps
	}
	out := ps[:1]
	for _, p := range ps[1:] {
		last := &out[len(out)-1]
		if last.SegIdx == p.SegIdx && last.Off+last.N == p.Off {
			last.N += p.N
		} else {
			out = append(out, p)
		}
	}
	return out
}

// Plan extends the index (if needed) to cover a write of [off, off+n) and
// returns the pieces to write. New segments get IDs from newID and start at
// Version 0 (uncommitted). Plan mutates the index: logical size, per-segment
// sizes, and appended SegRefs; callers re-fetch the index on failure.
// Attached files spill to a data segment once they outgrow MaxAttach.
func (x *Index) Plan(off, n int64, newID func() ids.SegID) ([]Piece, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("layout: negative range")
	}
	end := off + n
	if x.IsAttached() {
		if x.Mode == wire.Linear && end <= MaxAttach {
			// Stays attached; caller writes into Attached directly.
			return nil, nil
		}
		x.HasAttached = false
		x.Attached = nil
	}
	switch x.Mode {
	case wire.Linear:
		for x.linearCapacity() < end {
			x.Segs = append(x.Segs, SegRef{ID: newID()})
		}
	case wire.Striped:
		if end > x.totalStripedCapacity() {
			return nil, ErrBeyondEOF
		}
	case wire.Hybrid:
		for x.hybridCapacity() < end {
			for k := 0; k < x.StripeCount; k++ {
				x.Segs = append(x.Segs, SegRef{ID: newID()})
			}
		}
	}
	if end > x.Size {
		x.Size = end
	}
	pieces := x.mapRange(off, n)
	for _, p := range pieces {
		if e := p.Off + p.N; e > x.Segs[p.SegIdx].Size {
			x.Segs[p.SegIdx].Size = e
		}
	}
	return pieces, nil
}

func (x *Index) linearCapacity() int64 {
	var cum int64
	for i := range x.Segs {
		cum += x.SegCapacity(i)
	}
	return cum
}

func (x *Index) totalStripedCapacity() int64 {
	var cum int64
	for i := range x.Segs {
		cum += x.Segs[i].Size
	}
	return cum
}

func (x *Index) hybridCapacity() int64 {
	groups := len(x.Segs) / x.StripeCount
	var cum int64
	for g := 0; g < groups; g++ {
		cum += x.Sizing.GroupSegmentSize(g, x.StripeCount) * int64(x.StripeCount)
	}
	return cum
}

// Index segment format: one format byte, then the fields of Index in
// declaration order — fixed-width little-endian integers (int and int64 as 8
// bytes), a u32 count before Segs (32 bytes per SegRef), a strict 0/1 byte
// for HasAttached, and a u32 length before Attached, which as the last field
// must account for every remaining byte. These are the conventions of
// internal/wire/codec.go. There is one format and no fallback: segment stores
// are in-memory, so no index payload outlives the processes that wrote it.
const (
	indexFormat = 1
	indexHead   = 1 + 1 + 8 + 4       // format, Mode, Size, len(Segs)
	segRefSize  = 16 + 8 + 8          // ID, Version, Size
	indexTail   = 8 + 8 + 4*8 + 1 + 4 // StripeCount, StripeUnit, Sizing, HasAttached, len(Attached)
)

// Encode serializes the index for storage in the index segment.
func (x *Index) Encode() []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, indexHead+len(x.Segs)*segRefSize+indexTail+len(x.Attached))
	b = append(b, indexFormat, byte(x.Mode))
	b = le.AppendUint64(b, uint64(x.Size))
	b = le.AppendUint32(b, uint32(len(x.Segs)))
	for i := range x.Segs {
		b = append(b, x.Segs[i].ID[:]...)
		b = le.AppendUint64(b, x.Segs[i].Version)
		b = le.AppendUint64(b, uint64(x.Segs[i].Size))
	}
	b = le.AppendUint64(b, uint64(x.StripeCount))
	b = le.AppendUint64(b, uint64(x.StripeUnit))
	b = le.AppendUint64(b, uint64(x.Sizing.Unit))
	b = le.AppendUint64(b, uint64(x.Sizing.Max))
	b = le.AppendUint64(b, uint64(x.Sizing.Base))
	b = le.AppendUint64(b, uint64(x.Sizing.Period))
	if x.HasAttached {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le.AppendUint32(b, uint32(len(x.Attached)))
	return append(b, x.Attached...)
}

// Decode parses an index segment payload. The payload comes from a storage
// provider, so everything later code divides by or branches on is checked
// here.
func Decode(data []byte) (*Index, error) {
	le := binary.LittleEndian
	i64 := func(b []byte) int64 { return int64(le.Uint64(b)) }
	if len(data) < indexHead+indexTail {
		return badIndex("%d bytes is shorter than an empty index", len(data))
	}
	if data[0] != indexFormat {
		return badIndex("unknown format %d", data[0])
	}
	x := &Index{Mode: wire.LayoutMode(data[1]), Size: i64(data[2:])}
	nseg := le.Uint32(data[10:])
	b := data[indexHead:]
	if uint64(nseg) > uint64(len(b)-indexTail)/segRefSize {
		return badIndex("%d segments do not fit in %d bytes", nseg, len(data))
	}
	if nseg > 0 {
		x.Segs = make([]SegRef, nseg)
		for i := range x.Segs {
			copy(x.Segs[i].ID[:], b)
			x.Segs[i].Version = le.Uint64(b[16:])
			x.Segs[i].Size = i64(b[24:])
			b = b[segRefSize:]
		}
	}
	x.StripeCount = int(i64(b))
	x.StripeUnit = i64(b[8:])
	x.Sizing = Sizing{Unit: i64(b[16:]), Max: i64(b[24:]), Base: i64(b[32:]), Period: int(i64(b[40:]))}
	if b[48] > 1 {
		return badIndex("presence byte %d", b[48])
	}
	x.HasAttached = b[48] == 1
	attached := b[indexTail:]
	if n := le.Uint32(b[49:]); uint64(n) != uint64(len(attached)) {
		return badIndex("attached length %d but %d bytes remain", n, len(attached))
	}

	switch {
	case x.Mode > wire.Hybrid:
		return badIndex("mode %d", x.Mode)
	case x.Sizing.Unit <= 0 || x.Sizing.Max <= 0 || x.Sizing.Base <= 0 || x.Sizing.Period <= 0:
		return badIndex("sizing %+v", x.Sizing)
	case x.Mode != wire.Linear && (x.StripeCount <= 0 || x.StripeUnit <= 0):
		return badIndex("%v with stripe count %d, unit %d", x.Mode, x.StripeCount, x.StripeUnit)
	case len(attached) > MaxAttach:
		return badIndex("%d attached bytes", len(attached))
	case x.HasAttached && len(x.Segs) > 0:
		return badIndex("attached payload and %d segments", len(x.Segs))
	}
	// The client overwrites Attached in place, and data may alias a
	// provider's committed bytes on the in-process fabric.
	x.Attached = append([]byte(nil), attached...)
	return x, nil
}

func badIndex(format string, args ...any) (*Index, error) {
	return nil, fmt.Errorf("%w: %s", ErrBadIndex, fmt.Sprintf(format, args...))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
