package segstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
)

// commitWrite runs one shadow-write-commit cycle and returns the version.
func commitWrite(t *testing.T, st *Store, seg ids.SegID, off int64, data []byte) uint64 {
	t.Helper()
	if _, _, err := st.Shadow("w", seg, 0, time.Minute, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteShadow("w", seg, off, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Prepare("w", seg); err != nil {
		t.Fatal(err)
	}
	ver, _, err := st.CommitPrepared("w", seg)
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

func TestFetchDeltaReturnsChangedRanges(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte{'a'}, 100), 1, 0, false)
	commitWrite(t, st, seg, 10, []byte("XXXX")) // v2

	ranges, size, ver, _, _, full, _, err := st.FetchDelta(seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil {
		t.Fatalf("full fallback for a retained change set")
	}
	if ver != 2 || size != 100 {
		t.Fatalf("ver=%d size=%d", ver, size)
	}
	if len(ranges) != 1 || ranges[0].Off != 10 || string(ranges[0].Data) != "XXXX" {
		t.Fatalf("ranges = %+v", ranges)
	}
}

func TestFetchDeltaAlreadyCurrent(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("abc"), 1, 0, false)
	ranges, _, ver, _, _, full, _, err := st.FetchDelta(seg, 1)
	if err != nil || ranges != nil || full != nil || ver != 1 {
		t.Fatalf("current replica delta: %v %v %v %v", ranges, ver, full, err)
	}
}

func TestFetchDeltaUnionsMultipleVersions(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte{'a'}, 50), 1, 0, false)
	commitWrite(t, st, seg, 0, []byte("11"))  // v2
	commitWrite(t, st, seg, 10, []byte("22")) // v3

	ranges, _, ver, _, _, full, _, err := st.FetchDelta(seg, 1)
	if err != nil || full != nil {
		t.Fatalf("err=%v full=%v", err, full)
	}
	if ver != 3 {
		t.Fatalf("ver=%d", ver)
	}
	var total int64
	for _, r := range ranges {
		total += int64(len(r.Data))
	}
	if total != 4 {
		t.Fatalf("delta bytes = %d, want 4 (two 2-byte changes)", total)
	}
}

func TestFetchDeltaFullFallbackWhenHistoryPruned(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	for i := 0; i < KeepChanges+2; i++ {
		commitWrite(t, st, seg, 0, []byte{byte('A' + i%26)})
	}
	// A replica stuck at v1 is far beyond the retained change history.
	_, _, ver, _, _, full, _, err := st.FetchDelta(seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full == nil {
		t.Fatal("expected full fallback for pruned history")
	}
	if ver != uint64(KeepChanges+3) {
		t.Fatalf("ver = %d", ver)
	}
}

func TestFetchDeltaFromZeroIsFull(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("payload"), 1, 0, false)
	_, _, _, _, _, full, _, err := st.FetchDelta(seg, 0)
	if err != nil || string(full) != "payload" {
		t.Fatalf("full=%q err=%v", full, err)
	}
}

func TestFetchDeltaMissingSegment(t *testing.T) {
	st := newStore(t)
	if _, _, _, _, _, _, _, err := st.FetchDelta(ids.New(), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyDeltaAdvancesReplica(t *testing.T) {
	src := newStore(t)
	dst := newStore(t)
	seg := ids.New()
	base := bytes.Repeat([]byte{'a'}, 64)
	src.Create(seg, base, 1, 0, false)
	dst.Install(seg, 1, base, 1, 0)
	commitWrite(t, src, seg, 5, []byte("HELLO")) // v2

	ranges, size, ver, rd, lt, full, sums, err := src.FetchDelta(seg, 1)
	if err != nil || full != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(seg, 1, ver, ranges, size, rd, lt, sums); err != nil {
		t.Fatal(err)
	}
	got, gver, _ := dst.Read(seg, 0, 0, 64)
	want, _, _ := src.Read(seg, 0, 0, 64)
	if gver != 2 || !bytes.Equal(got, want) {
		t.Fatalf("replica v%d = %q, want %q", gver, got, want)
	}
}

func TestApplyDeltaVersionMismatch(t *testing.T) {
	dst := newStore(t)
	seg := ids.New()
	dst.Install(seg, 3, []byte("v3"), 1, 0)
	err := dst.ApplyDelta(seg, 2, 4, nil, 2, 1, 0, nil)
	if !errors.Is(err, ErrNoVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyDeltaOutOfRangeRejected(t *testing.T) {
	dst := newStore(t)
	seg := ids.New()
	dst.Install(seg, 1, []byte("abcd"), 1, 0)
	err := dst.ApplyDelta(seg, 1, 2, []DeltaRange{{Off: 10, Data: []byte("zz")}}, 4, 1, 0, nil)
	if !errors.Is(err, ErrNoVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeltaHandlesShrinkingFile(t *testing.T) {
	src := newStore(t)
	dst := newStore(t)
	seg := ids.New()
	base := bytes.Repeat([]byte{'x'}, 40)
	src.Create(seg, base, 1, 0, false)
	dst.Install(seg, 1, base, 1, 0)

	// Commit a whole-content replace that shrinks the segment to 10 bytes.
	if _, err := src.ReplaceAndPrepare("w", seg, bytes.Repeat([]byte{'y'}, 10), time.Minute, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, size, err := src.CommitPrepared("w", seg); err != nil || size != 10 {
		t.Fatalf("commit: size %d, err %v", size, err)
	}

	ranges, size, ver, rd, lt, full, sums, err := src.FetchDelta(seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil {
		if err := dst.Install(seg, ver, full, rd, lt); err != nil {
			t.Fatal(err)
		}
	} else if err := dst.ApplyDelta(seg, 1, ver, ranges, size, rd, lt, sums); err != nil {
		t.Fatal(err)
	}
	got, _, _ := dst.Read(seg, 0, 0, 100)
	want, _, _ := src.Read(seg, 0, 0, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("after shrink: replica %q, source %q", got, want)
	}
}

// TestDeltaSyncEquivalentToFullSync property-tests that a replica advanced
// by deltas always matches one advanced by full copies, under random write
// histories.
func TestDeltaSyncEquivalentToFullSync(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		clock := simtime.NewClock(0.0001)
		src := New(clock, disk.New(clock, "src", disk.SCSI10K(), 1<<30))
		dst := New(clock, disk.New(clock, "dst", disk.SCSI10K(), 1<<30))
		seg := ids.New()
		base := make([]byte, 200)
		rng.Read(base)
		src.Create(seg, base, 1, 0, false)
		dst.Install(seg, 1, base, 1, 0)

		have := uint64(1)
		commits := 2 + rng.Intn(5)
		for k := 0; k < commits; k++ {
			// 1–3 writes per commit at random offsets.
			src.Shadow("w", seg, 0, time.Minute, 1, 0)
			for w := 0; w < 1+rng.Intn(3); w++ {
				off := int64(rng.Intn(250))
				data := make([]byte, 1+rng.Intn(40))
				rng.Read(data)
				src.WriteShadow("w", seg, off, data)
			}
			src.Prepare("w", seg)
			src.CommitPrepared("w", seg)

			// Sync the replica every other commit so deltas span multiple
			// versions sometimes.
			if k%2 == 1 || k == commits-1 {
				ranges, size, ver, rd, lt, full, sums, err := src.FetchDelta(seg, have)
				if err != nil {
					t.Fatal(err)
				}
				if full != nil {
					if err := dst.Install(seg, ver, full, rd, lt); err != nil {
						t.Fatal(err)
					}
				} else if err := dst.ApplyDelta(seg, have, ver, ranges, size, rd, lt, sums); err != nil {
					t.Fatal(err)
				}
				have = ver
			}
		}
		got, gv, _ := dst.Read(seg, 0, 0, 1<<20)
		want, wv, _ := src.Read(seg, 0, 0, 1<<20)
		if gv != wv || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: replica v%d diverged from source v%d", trial, gv, wv)
		}
	}
}

func TestMergeRanges(t *testing.T) {
	got := mergeRanges([]rng{{10, 20}, {0, 5}, {15, 30}, {40, 41}})
	want := []rng{{0, 5}, {10, 30}, {40, 41}}
	if len(got) != len(want) {
		t.Fatalf("merged = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := mergeRanges(nil); len(out) != 0 {
		t.Errorf("empty merge = %v", out)
	}
}
