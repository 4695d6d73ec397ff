package segstore

import (
	"slices"
	"sort"

	"repro/internal/wire"
)

// extent is one contiguous written range of a copy-on-write shadow.
type extent struct {
	off  int64
	data []byte
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// extentMap is the index structure the paper describes for shadow copies
// (§3.5): it maps region ranges to the newly written bytes; regions not
// covered resolve to the base version. Extents are kept sorted and
// non-overlapping. baseLimit remembers the lowest truncation point so base
// bytes cut off by a truncate never resurface when the shadow regrows.
type extentMap struct {
	exts      []extent
	baseLimit int64 // -1 (via limited flag) means no truncation yet
	limited   bool
	// sums are the running wire.SumBlock sums of the leading complete blocks
	// of exts[0] while it starts at offset 0 (empty otherwise), taken right
	// after the bytes were copied in, while they are hot. A sequential
	// writer's commit then needs only the last partial block summed (see
	// commitSums).
	sums []uint32
	// hint is the size the first buffer of a write at offset 0 is given (the
	// segment's layout capacity, SegShadow.SizeHint), so a sequential writer
	// never outgrows it; 0 sizes it to the write.
	hint int
}

// write inserts data at off, replacing any overlapped ranges. The payload is
// copied into a pooled buffer, so the caller's data (typically a wire
// message) is never retained.
func (m *extentMap) write(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	// Blocks from off's on may change: their sums go. Keeping one would let
	// an overwrite inside the one extent at 0 commit under a sum of the bytes
	// it replaced.
	if k := int(off / wire.SumBlock); k < len(m.sums) {
		m.sums = m.sums[:k]
	}
	defer m.extendSums(off, off+int64(len(data)))
	// A sequential writer starts exactly where the last extent ends: append
	// into that extent's spare capacity, moving it to one larger pooled
	// buffer when that runs out, so the payload is copied once.
	if n := len(m.exts); n > 0 && m.exts[n-1].end() == off {
		last := &m.exts[n-1]
		if need := len(last.data) + len(data); need > cap(last.data) {
			grown := poolGet(need)[:len(last.data)]
			copy(grown, last.data)
			poolPut(last.data)
			last.data = grown
		}
		last.data = append(last.data, data...)
		return
	}
	end := off + int64(len(data))
	newExt := extent{off: off, data: poolGet(len(data))}
	if off == 0 && m.hint > len(data) {
		newExt.data = poolGet(m.hint)[:len(data)]
	}
	copy(newExt.data, data)
	// The list is sorted and non-overlapping, so the extents the write
	// overlaps are one run exts[i:j], which repl replaces.
	i := sort.Search(len(m.exts), func(k int) bool { return m.exts[k].end() > off })
	j := i
	repl := append(make([]extent, 0, 3), newExt)
	for ; j < len(m.exts) && m.exts[j].off < end; j++ {
		// Keep the non-overlapped head and/or tail. The head stays an
		// array-prefix subslice of e's buffer (inheriting its pool
		// ownership); the tail would alias the middle of the same array, so
		// it moves into its own pooled buffer.
		e := m.exts[j]
		if e.end() > end {
			src := e.data[end-e.off:]
			tail := extent{off: end, data: poolGet(len(src))}
			copy(tail.data, src)
			repl = append(repl, tail)
		}
		if e.off < off {
			repl = slices.Insert(repl, 0, extent{off: e.off, data: e.data[:off-e.off]})
		} else {
			poolPut(e.data)
		}
	}
	m.exts = m.coalesce(slices.Replace(m.exts, i, j, repl...))
}

// extendSums sums the complete blocks of exts[0] that the write [off, end)
// just filled, when the running sums reach off's block: a sequential writer's
// blocks are summed once each, as they land. A write that starts past the
// summed blocks leaves them as they are, and so does one into an extent that
// does not start at 0; commitSums finishes the job at commit. Bounding the
// pass by end keeps each write's CRC work to its own bytes, however often a
// rewrite near offset 0 cuts the sums back.
func (m *extentMap) extendSums(off, end int64) {
	if len(m.exts) == 0 || m.exts[0].off != 0 || int64(len(m.sums)) != off/wire.SumBlock {
		return
	}
	d := m.exts[0].data
	if m.sums == nil {
		m.sums = make([]uint32, 0, max(len(d), m.hint)/wire.SumBlock+1)
	}
	lim := min(end, int64(len(d)))
	for k := int64(len(m.sums)); (k+1)*wire.SumBlock <= lim; k++ {
		m.sums = append(m.sums, wire.SumOf(d[k*wire.SumBlock:(k+1)*wire.SumBlock]))
	}
	// Room for the partial block commitSums adds, so the version keeps this
	// very slice.
	m.sums = slices.Grow(m.sums, 1)
}

// commitSums returns the block sums of exts[0], which the caller has checked
// is the shadow's whole content: the running sums plus whatever blocks they
// do not cover yet (for a sequential writer, the last partial block). The
// map gives the slice up.
func (m *extentMap) commitSums() []uint32 {
	d := m.exts[0].data
	sums := m.sums
	m.sums = nil
	for k := len(sums) * wire.SumBlock; k < len(d); k += wire.SumBlock {
		sums = append(sums, wire.SumOf(d[k:min(k+wire.SumBlock, len(d))]))
	}
	return sums[:len(sums):len(sums)]
}

// coalesce merges adjacent extents to bound the index size, recycling the
// buffers the merge empties.
func (m *extentMap) coalesce(exts []extent) []extent {
	if len(exts) < 2 {
		return exts
	}
	out := exts[:1]
	for _, e := range exts[1:] {
		last := &out[len(out)-1]
		if last.end() == e.off {
			if len(last.data)+len(e.data) <= cap(last.data) {
				last.data = append(last.data, e.data...)
			} else {
				merged := poolGet(len(last.data) + len(e.data))
				copy(merged, last.data)
				copy(merged[len(last.data):], e.data)
				poolPut(last.data)
				last.data = merged
			}
			poolPut(e.data)
		} else {
			out = append(out, e)
		}
	}
	return out
}

// coveredWithin returns how many bytes in [lo,hi) existing extents cover; a
// write of that range newly covers the rest (space accounting).
func (m *extentMap) coveredWithin(lo, hi int64) int64 {
	var n int64
	for _, e := range m.exts {
		a, b := e.off, e.end()
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			n += b - a
		}
	}
	return n
}

// read fills dst with the shadow view of [off, off+len(dst)): written
// extents win, everything else comes from base (which may be nil, meaning
// zeros).
func (m *extentMap) read(off int64, dst []byte, base []byte) {
	// Start from the base (or zeros). Base bytes beyond a past truncation
	// point are dead.
	baseLen := int64(len(base))
	if m.limited && m.baseLimit < baseLen {
		baseLen = m.baseLimit
	}
	n := 0
	if off < baseLen {
		n = copy(dst, base[off:baseLen])
	}
	clear(dst[n:])
	hi := off + int64(len(dst))
	for _, e := range m.exts {
		if e.end() <= off || e.off >= hi {
			continue
		}
		a := e.off
		if a < off {
			a = off
		}
		b := e.end()
		if b > hi {
			b = hi
		}
		copy(dst[a-off:b-off], e.data[a-e.off:b-e.off])
	}
}

// truncate drops written bytes at or beyond size and returns how many
// covered bytes were released.
func (m *extentMap) truncate(size int64) int64 {
	if k := int(size / wire.SumBlock); k < len(m.sums) {
		m.sums = m.sums[:k]
	}
	if !m.limited || size < m.baseLimit {
		m.limited = true
		m.baseLimit = size
	}
	var released int64
	out := m.exts[:0]
	for _, e := range m.exts {
		switch {
		case e.end() <= size:
			out = append(out, e)
		case e.off >= size:
			released += int64(len(e.data))
			poolPut(e.data)
		default:
			released += e.end() - size
			e.data = e.data[:size-e.off]
			out = append(out, e)
		}
	}
	m.exts = out
	return released
}

// release recycles every extent buffer and empties the map. Callers must
// ensure nothing aliases the extents: shadow reads are copies, and a commit
// that adopts an extent's buffer as the version takes that extent out of
// the map first, so a shadow's death is a safe point.
func (m *extentMap) release() {
	for _, e := range m.exts {
		poolPut(e.data)
	}
	m.exts = nil
	m.sums = nil
}

// writtenBytes returns the total bytes the shadow has materialized.
func (m *extentMap) writtenBytes() int64 {
	var n int64
	for _, e := range m.exts {
		n += int64(len(e.data))
	}
	return n
}

// maxEnd returns the highest written offset end (0 when empty).
func (m *extentMap) maxEnd() int64 {
	var n int64
	for _, e := range m.exts {
		if e.end() > n {
			n = e.end()
		}
	}
	return n
}
