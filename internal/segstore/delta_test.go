package segstore

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
	"repro/internal/wire"
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

// TestFetchWholeOrDelta: one Fetch answers a replica with the changes since
// the version it holds while every change set since then is kept, and with
// the whole version, checked before it leaves, otherwise.
func TestFetchWholeOrDelta(t *testing.T) {
	pruned := func(t *testing.T, st *Store) ids.SegID {
		seg := ids.New()
		st.Create(seg, []byte("base"), 1, 0, false)
		for i := 0; i < KeepChanges+2; i++ {
			commitWrite(t, st, seg, 0, []byte{byte('A' + i%26)})
		}
		return seg // a replica stuck at v1 is beyond the kept change sets
	}
	rows := []struct {
		name   string
		setup  func(t *testing.T, st *Store) ids.SegID
		have   uint64
		err    error
		delta  bool
		ver    uint64
		ranges []DeltaRange // with delta
		data   string       // without: the whole version
	}{
		{
			name: "one changed range",
			setup: func(t *testing.T, st *Store) ids.SegID {
				seg := ids.New()
				st.Create(seg, bytes.Repeat([]byte{'a'}, 100), 1, 0, false)
				commitWrite(t, st, seg, 10, []byte("XXXX"))
				return seg
			},
			have: 1, delta: true, ver: 2, ranges: []DeltaRange{{Off: 10, Data: []byte("XXXX")}},
		},
		{
			name: "already current",
			setup: func(t *testing.T, st *Store) ids.SegID {
				seg := ids.New()
				st.Create(seg, []byte("abc"), 1, 0, false)
				return seg
			},
			have: 1, delta: true, ver: 1,
		},
		{
			name: "union across versions",
			setup: func(t *testing.T, st *Store) ids.SegID {
				seg := ids.New()
				st.Create(seg, bytes.Repeat([]byte{'a'}, 50), 1, 0, false)
				commitWrite(t, st, seg, 0, []byte("11"))
				commitWrite(t, st, seg, 10, []byte("22"))
				return seg
			},
			have: 1, delta: true, ver: 3, ranges: []DeltaRange{{Off: 0, Data: []byte("11")}, {Off: 10, Data: []byte("22")}},
		},
		{
			name:  "pruned history gives the whole version",
			setup: pruned,
			have:  1, ver: KeepChanges + 3, data: string(rune('A'+(KeepChanges+1)%26)) + "ase",
		},
		{
			name: "pruned history on a corrupt source is refused",
			setup: func(t *testing.T, st *Store) ids.SegID {
				seg := pruned(t, st)
				if !st.Corrupt(seg) {
					t.Fatal("could not corrupt the source's copy")
				}
				return seg
			},
			have: 1, err: ErrCorrupt,
		},
		{
			name: "haveVer 0 gives the whole version",
			setup: func(t *testing.T, st *Store) ids.SegID {
				seg := ids.New()
				st.Create(seg, []byte("payload"), 1, 0, false)
				return seg
			},
			ver: 1, data: "payload",
		},
		{
			name:  "missing segment",
			setup: func(t *testing.T, st *Store) ids.SegID { return ids.New() },
			have:  1, err: ErrNotFound,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st := newStore(t)
			seg := row.setup(t, st)
			r, err := st.Fetch(seg, 0, row.have)
			if !errors.Is(err, row.err) {
				t.Fatalf("err = %v, want %v", err, row.err)
			}
			if err != nil {
				return
			}
			if r.Delta != row.delta || r.Version != row.ver || r.Size != st.Stat(seg).Size {
				t.Fatalf("delta=%v v%d size %d, want delta=%v v%d size %d", r.Delta, r.Version, r.Size, row.delta, row.ver, st.Stat(seg).Size)
			}
			if !reflect.DeepEqual(r.Ranges, row.ranges) || string(r.Data) != row.data {
				t.Fatalf("ranges %+v data %q, want %+v and %q", r.Ranges, r.Data, row.ranges, row.data)
			}
		})
	}
}

// syncFrom advances dst's replica of seg from have to src's latest version
// as a pull does: one Fetch, then ApplyDelta or Install.
func syncFrom(t *testing.T, src, dst *Store, seg ids.SegID, have uint64) uint64 {
	t.Helper()
	r, err := src.Fetch(seg, 0, have)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delta {
		err = dst.ApplyDelta(seg, have, r.Version, r.Ranges, r.Size, r.ReplDeg, r.LocalityThreshold, r.Sums)
	} else {
		err = dst.Install(seg, r.Version, r.Data, r.Sums, r.ReplDeg, r.LocalityThreshold)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r.Version
}

// TestPulledReplicaKeepsTheSendersSums: a replica installed whole or
// advanced by a delta stores the sums its payload was checked against, not
// sums computed again, and a scrub of it reads it clean.
func TestPulledReplicaKeepsTheSendersSums(t *testing.T) {
	src, dst := newStore(t), newStore(t)
	seg := ids.New()
	src.Create(seg, bytes.Repeat([]byte{'a'}, 3*wire.SumBlock), 1, 0, false)
	have := syncFrom(t, src, dst, seg, 0) // whole
	commitWrite(t, src, seg, wire.SumBlock+7, []byte("changed"))
	syncFrom(t, src, dst, seg, have) // delta
	for ver := uint64(1); ver <= 2; ver++ {
		want, got := src.segs[seg].sums[ver], dst.segs[seg].sums[ver]
		if !reflect.DeepEqual(got, want) || &got[0] != &want[0] {
			t.Errorf("v%d: the replica's sums are not the ones it was sent", ver)
		}
	}
	if _, dropped, _ := dst.ScrubSegment(seg); dropped != 0 {
		t.Errorf("scrub dropped %d versions of the replica", dropped)
	}
}

func TestApplyDeltaAdvancesReplica(t *testing.T) {
	src := newStore(t)
	dst := newStore(t)
	seg := ids.New()
	base := bytes.Repeat([]byte{'a'}, 64)
	src.Create(seg, base, 1, 0, false)
	dst.Install(seg, 1, base, nil, 1, 0)
	commitWrite(t, src, seg, 5, []byte("HELLO")) // v2

	r, err := src.Fetch(seg, 0, 1)
	if err != nil || !r.Delta {
		t.Fatalf("delta=%v err %v", r.Delta, err)
	}
	if err := dst.ApplyDelta(seg, 1, r.Version, r.Ranges, r.Size, r.ReplDeg, r.LocalityThreshold, r.Sums); err != nil {
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
	dst.Install(seg, 3, []byte("v3"), nil, 1, 0)
	err := dst.ApplyDelta(seg, 2, 4, nil, 2, 1, 0, nil)
	if !errors.Is(err, ErrNoVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyDeltaOutOfRangeRejected(t *testing.T) {
	dst := newStore(t)
	seg := ids.New()
	dst.Install(seg, 1, []byte("abcd"), nil, 1, 0)
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
	dst.Install(seg, 1, base, nil, 1, 0)

	// Commit a whole-content replace that shrinks the segment to 10 bytes.
	if _, err := src.ReplaceAndPrepare("w", seg, 0, bytes.Repeat([]byte{'y'}, 10), time.Minute, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, size, err := src.CommitPrepared("w", seg); err != nil || size != 10 {
		t.Fatalf("commit: size %d, err %v", size, err)
	}

	syncFrom(t, src, dst, seg, 1)
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
		dst.Install(seg, 1, base, nil, 1, 0)

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
				have = syncFrom(t, src, dst, seg, have)
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
