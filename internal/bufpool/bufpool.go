// Package bufpool provides process-wide power-of-two size-class byte-buffer
// pools. It began life as segstore's shadow-extent recycler (PR 1) and is
// shared by every allocation-sensitive layer since: segstore shadow extents,
// the wire codec's marshal buffers, and the TCP transport's frame buffers.
//
// Ownership invariant: every pooled slice handed out by Get is an
// array-prefix slice of its backing array, and exactly one live slice may
// reference that array when it is Put back. Callers that subslice a pooled
// buffer must either keep the prefix (which inherits the array) or copy.
// Putting a buffer back is optional: a caller may instead keep one for good
// (segstore does, when a shadow's buffer becomes a committed version that
// readers alias); it has then left the pool and only the GC frees it.
package bufpool

import "sync"

const (
	// MinClass is the smallest pooled class (512 B).
	MinClass = 9
	// MaxClass is the largest pooled class (64 MB); larger buffers fall
	// through to the GC.
	MaxClass = 26
)

var pools [MaxClass - MinClass + 1]sync.Pool

// class returns the smallest class whose size holds n bytes.
func class(n int) int {
	c := MinClass
	for n > 1<<c {
		c++
	}
	return c
}

// Get returns a length-n buffer backed by a pooled array. The contents are
// NOT zeroed; callers must overwrite all n bytes.
func Get(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > 1<<MaxClass {
		return make([]byte, n)
	}
	c := class(n)
	if p, _ := pools[c-MinClass].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<c)
}

// Put recycles a buffer obtained from Get once no live slice references its
// array. Buffers whose capacity is not an exact class size (e.g. grown by
// append past the class) are left to the GC.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<MinClass || c > 1<<MaxClass {
		return
	}
	cls := class(c)
	if 1<<cls != c {
		return
	}
	b = b[:c]
	pools[cls-MinClass].Put(&b)
}
