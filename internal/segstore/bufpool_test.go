package segstore

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

func TestPoolClasses(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {5000, 8192},
	} {
		b := poolGet(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("poolGet(%d): len %d cap %d, want len %d cap %d",
				tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
		poolPut(b)
	}
	if b := poolGet(0); b != nil {
		t.Errorf("poolGet(0) = %v", b)
	}
	// Oversize requests bypass the pool but still work.
	huge := poolGet(1<<maxPoolClass + 1)
	if len(huge) != 1<<maxPoolClass+1 {
		t.Errorf("oversize poolGet wrong length")
	}
	poolPut(huge) // dropped, not recycled — must not panic
	// Non-class capacities (e.g. append-grown) are dropped silently.
	poolPut(make([]byte, 700))
	poolPut(nil)
}

func TestPoolRecycles(t *testing.T) {
	b := poolGet(1024)
	for i := range b {
		b[i] = 0xEE
	}
	poolPut(b)
	// The next same-class Get may return the same array with stale bytes;
	// poolGet documents that callers overwrite, so just verify shape.
	c := poolGet(900)
	if len(c) != 900 || cap(c) != 1024 {
		t.Errorf("recycled buffer: len %d cap %d", len(c), cap(c))
	}
}

// TestExtentSplitOwnership drives the head-keep/tail-copy split and checks
// the shadow still reads back correctly — if the tail aliased the head's
// array, recycling one would corrupt the other.
func TestExtentSplitOwnership(t *testing.T) {
	var m extentMap
	mk := func(n int, v byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = v
		}
		return b
	}
	m.write(0, mk(1000, 1))  // one extent [0,1000)
	m.write(400, mk(100, 2)) // split: head [0,400), new [400,500), tail [500,1000)
	got := make([]byte, 1000)
	m.read(0, got, nil)
	for i, b := range got {
		want := byte(1)
		if i >= 400 && i < 500 {
			want = 2
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	// Overwrite everything: old extents must be recycled without
	// double-free (the release of an aliased array would show up as
	// corruption on the next pooled write).
	m.write(0, mk(1000, 3))
	m.read(0, got, nil)
	for i, b := range got {
		if b != 3 {
			t.Fatalf("byte %d = %d after full overwrite", i, b)
		}
	}
	if w := m.writtenBytes(); w != 1000 {
		t.Fatalf("writtenBytes = %d", w)
	}
	m.release()
	if m.writtenBytes() != 0 {
		t.Fatal("release left extents behind")
	}
}

// TestZeroCopyReadSurvivesNewCommit pins the zero-copy contract: bytes
// served from a committed version stay stable after later commits replace
// the latest version and consolidation drops old ones.
func TestZeroCopyReadSurvivesNewCommit(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	if err := st.Create(seg, bytes.Repeat([]byte{7}, 256), 1, 0, false); err != nil {
		t.Fatal(err)
	}
	v1, _, err := st.Read(seg, 1, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Commit several new versions so consolidation reclaims version 1.
	for i := 0; i < KeepVersions+2; i++ {
		if _, _, err := st.Shadow("w", seg, 0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.WriteShadow("w", seg, 0, bytes.Repeat([]byte{byte(10 + i)}, 256)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Prepare("w", seg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.CommitPrepared("w", seg); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range v1 {
		if b != 7 {
			t.Fatalf("served v1 byte %d mutated to %d after later commits", i, b)
		}
	}
}

// TestDirectReadIsACopy pins the exception: versioning-off segments mutate
// in place, so their reads must never alias the stored buffer.
func TestDirectReadIsACopy(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	if err := st.Create(seg, bytes.Repeat([]byte{1}, 64), 1, 0, true); err != nil {
		t.Fatal(err)
	}
	before, _, err := st.Read(seg, 0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDirect(seg, 0, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	for i, b := range before {
		if b != 1 {
			t.Fatalf("direct read aliased storage: byte %d = %d", i, b)
		}
	}
	// And the fetch path too.
	f1, err := st.Fetch(seg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.WriteDirect(seg, 0, bytes.Repeat([]byte{5}, 64))
	for i, b := range f1.Data {
		if b != 9 {
			t.Fatalf("direct fetch aliased storage: byte %d = %d", i, b)
		}
	}
}
