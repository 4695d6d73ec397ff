package segstore

import "repro/internal/bufpool"

// Shadow extents are the store's hottest allocation: every SegWrite copies
// its payload into one, and the buffers die in bulk at commit/abort time.
// They are recycled through the process-wide power-of-two size-class pools
// in internal/bufpool (shared with the wire codec and the TCP transport).
//
// Ownership invariant: every pooled slice handed out by poolGet is an
// array-prefix slice of its backing array, and exactly one live slice may
// reference that array. Splitting an extent therefore keeps the head (a
// prefix subslice, which inherits the array) and copies the tail into a
// fresh pooled buffer — returning the head to the pool later returns the
// whole array without freeing bytes someone else still reads. A buffer that
// CommitPrepared adopts as a committed version has left the pool: readers
// alias versions, so it is never poolPut and only the GC frees it.
const (
	minPoolClass = bufpool.MinClass
	maxPoolClass = bufpool.MaxClass
)

// poolGet returns a length-n buffer backed by a pooled array. The contents
// are NOT zeroed; callers must overwrite all n bytes.
func poolGet(n int) []byte { return bufpool.Get(n) }

// poolPut recycles a buffer obtained from poolGet once no live slice
// references its array.
func poolPut(b []byte) { bufpool.Put(b) }
