package segstore

import (
	"slices"
	"sort"
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
}

// write inserts data at off, replacing any overlapped ranges. The payload is
// copied into a pooled buffer, so the caller's data (typically a wire
// message) is never retained.
func (m *extentMap) write(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
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
