package segstore

import (
	"repro/internal/ids"
	"repro/internal/wire"
)

// DeltaRange aliases the wire type: one changed byte range of a committed
// version.
type DeltaRange = wire.DeltaRange

// changedSinceLocked returns the byte ranges of data, version ver of s,
// that changed after version have, aliasing data (delta ranges only exist
// for versioned, immutable segments). ok is false when a change set in
// (have, ver] has been consolidated away.
func changedSinceLocked(s *segment, data []byte, have, ver uint64) (ranges []DeltaRange, ok bool) {
	var union []rng
	for v := have + 1; v <= ver; v++ {
		ch, kept := s.changes[v]
		if !kept {
			return nil, false
		}
		union = append(union, ch...)
	}
	size := int64(len(data))
	for _, r := range mergeRanges(union) {
		if lo, hi := r.off, min(r.end, size); lo < hi {
			ranges = append(ranges, DeltaRange{Off: lo, Data: data[lo:hi:hi]})
		}
	}
	return ranges, true
}

// ApplyDelta advances a local replica from fromVer to toVer by applying
// changed ranges onto the local copy. It fails when the local version does
// not match fromVer (the caller falls back to a full fetch). wantSums are
// the sender's commit-time checksums of the full target version: the
// reconstructed buffer is verified against them BEFORE it is committed, so
// a delta applied over a locally-rotted base (or carrying corrupt ranges)
// is rejected with ErrCorrupt instead of propagating bad bytes, and kept
// as the version's sums once it passed. Nil wantSums skips the check (the
// sums are then computed locally).
func (st *Store) ApplyDelta(seg ids.SegID, fromVer, toVer uint64, ranges []DeltaRange, newSize int64, replDeg int, locThresh float64, wantSums []uint32) error {
	st.mu.Lock()
	s, ok := st.segs[seg]
	if !ok || s.latest != fromVer {
		st.mu.Unlock()
		return ErrNoVersion
	}
	base := s.versions[fromVer]
	buf := make([]byte, newSize)
	copy(buf, base)
	var written int64
	for _, r := range ranges {
		if r.Off < 0 || r.Off+int64(len(r.Data)) > newSize {
			st.mu.Unlock()
			return ErrNoVersion
		}
		copy(buf[r.Off:], r.Data)
		written += int64(len(r.Data))
	}
	if wantSums != nil {
		if wire.VerifySums(buf, wantSums) >= 0 {
			st.nDetected.Add(1)
			st.mu.Unlock()
			return ErrCorrupt
		}
		st.nVerifiedBlocks.Add(int64(len(wantSums)))
	}
	st.sealVersionLocked(s, toVer, buf, base, wantSums)
	s.latest = toVer
	if replDeg > 0 {
		s.replDeg = replDeg
	}
	if locThresh > 0 {
		s.localityThreshold = locThresh
	}
	st.consolidateLocked(s)
	grow := newSize // new version buffer occupies its full size
	st.mu.Unlock()
	if err := st.disk.Alloc(grow); err != nil {
		return err
	}
	st.disk.WriteAsync(written)
	return nil
}

// rng is an offset range used for change tracking.
type rng struct{ off, end int64 }

// mergeRanges sorts and coalesces ranges.
func mergeRanges(in []rng) []rng {
	if len(in) < 2 {
		return in
	}
	// Insertion sort: change sets are tiny.
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].off < in[j-1].off; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if r.off <= last.end {
			if r.end > last.end {
				last.end = r.end
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
