package segstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// writeSequential writes data into owner's open shadow of seg front to back
// in pieces of the given size, as a streaming client does.
func writeSequential(tb testing.TB, st *Store, owner string, seg ids.SegID, data []byte, piece int) {
	tb.Helper()
	for off := 0; off < len(data); off += piece {
		if _, err := st.WriteShadow(owner, seg, int64(off), data[off:min(off+piece, len(data))]); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCommitSequential is the provider's foreground write path for one
// segment: a 2 MiB data segment written front to back in eight 256 KiB
// pieces, and a 12 KiB index segment replaced whole. MB/s counts committed
// bytes.
func BenchmarkCommitSequential(b *testing.B) {
	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	b.Run("2MiB_8x256KiB", func(b *testing.B) {
		st := newStore(b)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg := ids.New()
			if _, _, err := st.Shadow("w", seg, 0, 0, 1, 0); err != nil {
				b.Fatal(err)
			}
			writeSequential(b, st, "w", seg, payload, 256<<10)
			if _, _, err := st.Prepare("w", seg); err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.CommitPrepared("w", seg); err != nil {
				b.Fatal(err)
			}
			if err := st.Delete(seg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The commit alone: Prepare and CommitPrepared of the same 2 MiB shadow,
	// its writes untimed. What a sequential segment's commit costs the
	// provider's critical path (no CRC pass: its sums were taken as the
	// pieces landed).
	b.Run("2MiB_commit", func(b *testing.B) {
		st := newStore(b)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			seg := ids.New()
			if _, _, err := st.ShadowSized("w", seg, 0, int64(len(payload)), 0, 1, 0); err != nil {
				b.Fatal(err)
			}
			writeSequential(b, st, "w", seg, payload, 256<<10)
			b.StartTimer()
			if _, _, err := st.Prepare("w", seg); err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.CommitPrepared("w", seg); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := st.Delete(seg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("12KiB_replace", func(b *testing.B) {
		st := newStore(b)
		index := payload[:12<<10]
		b.SetBytes(int64(len(index)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg := ids.New()
			if _, err := st.ReplaceAndPrepare("w", seg, 0, index, 0, 1, 0); err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.CommitPrepared("w", seg); err != nil {
				b.Fatal(err)
			}
			if err := st.Delete(seg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// commitStep is one operation of a write session in the commit table below:
// n random bytes written at off, or (replace) n random bytes made the whole
// content through ReplaceAndPrepare.
type commitStep struct {
	replace bool
	off, n  int
}

func seqWrites(pieces, piece int) []commitStep {
	var out []commitStep
	for i := 0; i < pieces; i++ {
		out = append(out, commitStep{off: i * piece, n: piece})
	}
	return out
}

// TestCommitPathsMatchFlatModel drives both ways a shadow becomes a version
// — adopted in place, or copied into an exact-size buffer — and checks
// everything a commit promises against a flat []byte model: bytes, sums,
// recorded change ranges, disk accounting, and that a replica holding the
// previous version reaches the new one through Fetch/ApplyDelta.
func TestCommitPathsMatchFlatModel(t *testing.T) {
	const K = 1 << 10
	cases := []struct {
		name    string
		base    int            // committed version 1 of this many bytes; 0 = new segment
		commits [][]commitStep // one write session per commit
		adopt   bool           // whether the LAST commit may keep the shadow's buffer
		// running: the LAST commit's content is one extent at offset 0, so
		// its sums must be the slice the shadow kept as the bytes landed,
		// never a fresh wire.SumsOf.
		running bool
	}{
		{"sequential whole segment", 0, [][]commitStep{seqWrites(8, 8*K)}, true, true},
		{"pieces out of order", 0, [][]commitStep{{{off: 16 * K, n: 8 * K}, {off: 0, n: 8 * K}, {off: 8 * K, n: 8 * K}, {off: 24 * K, n: 8 * K}}}, true, true},
		{"hole", 0, [][]commitStep{{{off: 0, n: 4 * K}, {off: 8 * K, n: 4 * K}}}, false, false},
		{"overwrite of a piece", 0, [][]commitStep{append(seqWrites(4, 4*K), commitStep{off: 4 * K, n: 4 * K})}, true, true},
		{"partial overwrite of a base", 32 * K, [][]commitStep{{{off: 4 * K, n: 4 * K}}}, false, false},
		{"whole overwrite of a base", 16 * K, [][]commitStep{{{off: 0, n: 16 * K}}}, true, true},
		{"appends past a base", 8 * K, [][]commitStep{{{off: 8 * K, n: 4 * K}, {off: 12 * K, n: 4 * K}}}, false, false},
		{"shrink then regrow", 32 * K, [][]commitStep{{{replace: true, n: 8 * K}}, {{off: 16 * K, n: 4 * K}}}, false, false},
		{"replace twice", 16 * K, [][]commitStep{{{replace: true, n: 20 * K}, {replace: true, n: 12 * K}}}, false, true},
		{"replace with nothing", 4 * K, [][]commitStep{{{replace: true, n: 0}}}, false, false},
		{"one past a power of two", 0, [][]commitStep{append(seqWrites(8, 8*K), commitStep{off: 64 * K, n: 1})}, false, true},
		{"slack exactly an eighth", 0, [][]commitStep{{{off: 0, n: 58255}}}, true, true},
		{"slack one byte over an eighth", 0, [][]commitStep{{{off: 0, n: 58254}}}, false, true},
		// Shapes that would commit a stale running sum if a write did not cut
		// the sums back to its own block first.
		{"appends then an overwrite inside the extent", 0, [][]commitStep{append(seqWrites(2, 256*K), commitStep{off: 8 * K, n: 4 * K})}, true, true},
		{"appends then an overwrite across a block edge", 0, [][]commitStep{append(seqWrites(4, 64*K), commitStep{off: 100 * K, n: 60 * K})}, true, true},
		{"appends not aligned to a block", 0, [][]commitStep{seqWrites(5, 58254)}, false, true},
		{"appends then a replace", 0, [][]commitStep{append(seqWrites(3, 96*K), commitStep{replace: true, n: 70 * K})}, false, true},
		{"truncation then regrowth from 0", 0, [][]commitStep{seqWrites(4, 64*K), {{replace: true, n: 100 * K}}, seqWrites(4, 64*K)}, true, true},
		{"truncation then regrowth past the end", 0, [][]commitStep{seqWrites(4, 64*K), {{replace: true, n: 100 * K}}, {{off: 100 * K, n: 64 * K}, {off: 164 * K, n: 64 * K}}}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			src, dst := newStore(t), newStore(t)
			seg := ids.New()
			var model []byte
			var ver uint64
			var sizes []int64 // of every version committed so far
			if tc.base > 0 {
				model = make([]byte, tc.base)
				rnd.Read(model)
				if err := src.Create(seg, model, 1, 0, false); err != nil {
					t.Fatal(err)
				}
				if err := dst.Install(seg, 1, model, nil, 1, 0); err != nil {
					t.Fatal(err)
				}
				ver, sizes = 1, []int64{int64(tc.base)}
			}
			for ci, steps := range tc.commits {
				prev := model
				model = append([]byte(nil), model...)
				dirty := make([]bool, len(model))
				grow := func(n int) {
					if n > len(model) {
						model = append(model, make([]byte, n-len(model))...)
						dirty = append(dirty, make([]bool, n-len(dirty))...)
					}
				}
				// No TTL: the store's clock runs 10^4 times faster than the
				// wall, so a modeled minute is 6 ms, which a race-detector
				// run of the larger cases outlasts.
				if !steps[0].replace {
					if _, _, err := src.Shadow("w", seg, 0, 0, 1, 0); err != nil {
						t.Fatal(err)
					}
				}
				for _, s := range steps {
					data := make([]byte, s.n)
					rnd.Read(data)
					if s.replace {
						if _, err := src.ReplaceAndPrepare("w", seg, 0, data, 0, 1, 0); err != nil {
							t.Fatal(err)
						}
						model, dirty = model[:0], dirty[:0]
					} else if _, err := src.WriteShadow("w", seg, int64(s.off), data); err != nil {
						t.Fatal(err)
					}
					grow(s.off + s.n)
					copy(model[s.off:], data)
					for i := s.off; i < s.off+s.n; i++ {
						dirty[i] = true
					}
				}
				if ver != 0 && len(model) > len(prev) {
					// A size change marks the tail beyond the old size changed.
					for i := len(prev); i < len(model); i++ {
						dirty[i] = true
					}
				}
				planned, size, err := src.Prepare("w", seg)
				if err != nil || planned != ver+1 || size != int64(len(model)) {
					t.Fatalf("commit %d: Prepare = v%d size %d err %v, want v%d size %d", ci, planned, size, err, ver+1, len(model))
				}
				var shadowBuf *byte
				if e := src.segs[seg].shadows["w"].ext.exts; len(e) == 1 {
					shadowBuf = &e[0].data[0]
				}
				running := src.segs[seg].shadows["w"].ext.sums
				if v, size, err := src.CommitPrepared("w", seg); err != nil || v != planned || size != int64(len(model)) {
					t.Fatalf("commit %d: CommitPrepared = v%d size %d err %v", ci, v, size, err)
				}
				stored := src.segs[seg].versions[planned]
				if cap(stored) != len(stored) {
					t.Errorf("commit %d: version has len %d cap %d; readers could append into it", ci, len(stored), cap(stored))
				}
				if ci == len(tc.commits)-1 {
					if adopted := len(stored) > 0 && &stored[0] == shadowBuf; adopted != tc.adopt {
						t.Errorf("version adopted the shadow's buffer: %v, want %v", adopted, tc.adopt)
					}
					if kept := sameArray(src.segs[seg].sums[planned], running); kept != tc.running {
						t.Errorf("version kept the shadow's running sums: %v, want %v", kept, tc.running)
					}
				}

				got, gv, err := src.Read(seg, 0, 0, 1<<30)
				if err != nil || gv != planned || !bytes.Equal(got, model) {
					t.Fatalf("commit %d: Read = %d bytes v%d err %v; differs from model (%d bytes)", ci, len(got), gv, err, len(model))
				}
				r, err := src.Fetch(seg, 0, 0)
				if err != nil || !reflect.DeepEqual(r.Sums, wire.SumsOf(model)) {
					t.Fatalf("commit %d: Fetch sums differ from the model's (err %v)", ci, err)
				}
				if !src.VerifyVersion(seg, 0) {
					t.Fatalf("commit %d: stored bytes do not match their sums", ci)
				}
				if ver != 0 && !src.VerifyVersion(seg, ver) {
					t.Fatalf("commit %d: the kept previous version v%d no longer matches its sums", ci, ver)
				}
				var want []rng
				for i := 0; i < len(dirty); i++ {
					if dirty[i] && (i == 0 || !dirty[i-1]) {
						want = append(want, rng{off: int64(i)})
					}
					if dirty[i] {
						want[len(want)-1].end = int64(i + 1)
					}
				}
				var have []rng
				for _, r := range src.segs[seg].changes[planned] {
					if r.end > r.off {
						have = append(have, r)
					}
				}
				if !reflect.DeepEqual(have, want) {
					t.Errorf("commit %d: changes = %v, want %v", ci, have, want)
				}
				// The store holds the newest KeepVersions versions, by size.
				sizes = append(sizes, int64(len(model)))
				var used int64
				for _, n := range sizes[max(0, len(sizes)-KeepVersions):] {
					used += n
				}
				if u := src.Disk().Used(); u != used {
					t.Errorf("commit %d: disk used %d, want %d", ci, u, used)
				}

				if ver == 0 {
					// A new segment's first version reaches the replica whole.
					if err := dst.Install(seg, planned, r.Data, r.Sums, 1, 0); err != nil {
						t.Fatalf("commit %d: Install: %v", ci, err)
					}
				} else {
					d, err := src.Fetch(seg, 0, ver)
					if err != nil || !d.Delta {
						t.Fatalf("commit %d: Fetch since v%d: delta=%v err %v, want ranges", ci, ver, d.Delta, err)
					}
					if err := dst.ApplyDelta(seg, ver, d.Version, d.Ranges, d.Size, d.ReplDeg, d.LocalityThreshold, d.Sums); err != nil {
						t.Fatalf("commit %d: ApplyDelta: %v", ci, err)
					}
					if got, _, _ := dst.Read(seg, 0, 0, 1<<30); !bytes.Equal(got, model) {
						t.Fatalf("commit %d: replica advanced by delta differs from model", ci)
					}
				}
				ver = planned
			}
		})
	}
}

// sameArray reports whether a and b share a backing array (both have
// room for at least one element).
func sameArray(a, b []uint32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestAdoptedVersionSurvivesPoolChurn pins the ownership rule of a commit
// that keeps the shadow's buffer: the buffer has left the pool, so no amount
// of later shadow traffic through the same size classes can reach it.
func TestAdoptedVersionSurvivesPoolChurn(t *testing.T) {
	const K = 1 << 10
	st := newStore(t)
	rnd := rand.New(rand.NewSource(3))
	seg := ids.New()
	want := make([]byte, 64*K)
	rnd.Read(want)
	st.Shadow("w", seg, 0, time.Minute, 1, 0)
	writeSequential(t, st, "w", seg, want, 8*K)
	st.Prepare("w", seg)
	shadowBuf := &st.segs[seg].shadows["w"].ext.exts[0].data[0]
	if _, _, err := st.CommitPrepared("w", seg); err != nil {
		t.Fatal(err)
	}
	held, _, err := st.Read(seg, 0, 0, 64*K)
	if err != nil {
		t.Fatal(err)
	}
	if &held[0] != shadowBuf {
		t.Fatal("sequentially written segment was not adopted; the test would prove nothing")
	}
	r, _ := st.Fetch(seg, 0, 0)
	sums := append([]uint32(nil), r.Sums...)

	// Other sessions push shadows of every class the adopted buffer passed
	// through (8K..64K), ending each of the four ways a shadow can end.
	fill := make([]byte, 64*K)
	for i := 0; i < 3000; i++ {
		other := ids.New()
		for j := range fill[:64] {
			fill[j] = byte(i + j)
		}
		st.Shadow("x", other, 0, time.Minute, 1, 0)
		writeSequential(t, st, "x", other, fill[:(1+i%8)*8*K], 8*K)
		switch i % 4 {
		case 0:
			st.Drop("x", other)
		case 1:
			st.Prepare("x", other)
			st.AbortPrepared("x", other)
		case 2:
			st.Prepare("x", other)
			st.CommitPrepared("x", other)
			st.Delete(other)
		case 3:
			st.Delete(other)
		}
	}

	if !bytes.Equal(held, want) {
		t.Fatal("bytes served zero-copy from an adopted version changed under pool churn")
	}
	if got, _, err := st.Read(seg, 0, 0, 64*K); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fresh Read after churn: err %v, equal %v", err, bytes.Equal(got, want))
	}
	if after, err := st.Fetch(seg, 0, 0); err != nil || !reflect.DeepEqual(after.Sums, sums) {
		t.Fatalf("Fetch after churn: err %v, sums equal %v", err, reflect.DeepEqual(after.Sums, sums))
	}
	if !st.VerifyVersion(seg, 0) {
		t.Fatal("adopted version no longer matches its commit-time sums")
	}
}

// TestCommitSequentialDoesNotAllocateTheSegment is a count that repeats
// exactly: turning a sequentially written 2 MiB shadow into a version
// allocates bookkeeping only (sums, change ranges, map entries), never a
// second segment-sized buffer.
func TestCommitSequentialDoesNotAllocateTheSegment(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Shadow("w", seg, 0, 0, 1, 0)
	writeSequential(t, st, "w", seg, make([]byte, 2<<20), 256<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := st.Prepare("w", seg); err != nil {
		t.Fatal(err)
	}
	_, size, err := st.CommitPrepared("w", seg)
	runtime.ReadMemStats(&after)
	if err != nil || size != 2<<20 {
		t.Fatalf("commit: size %d err %v", size, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("Prepare+CommitPrepared of a sequential 2 MiB segment allocated %d bytes, want < 64 KiB", got)
	}
}

// TestSizedShadowCommitsOneBuffer: a shadow opened with its segment's
// capacity as the size hint takes a 1 MiB segment written as four 256 KiB
// pieces into one buffer, and the commit keeps that buffer and the sums
// taken as the pieces landed.
func TestSizedShadowCommitsOneBuffer(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(data)
	if _, _, err := st.ShadowSized("w", seg, 0, 1<<20, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	sh := st.segs[seg].shadows["w"]
	var first *byte
	for off := 0; off < len(data); off += 256 << 10 {
		if _, err := st.WriteShadow("w", seg, int64(off), data[off:off+256<<10]); err != nil {
			t.Fatal(err)
		}
		if off == 0 {
			first = &sh.ext.exts[0].data[0]
		}
	}
	running := sh.ext.sums
	if len(sh.ext.exts) != 1 || &sh.ext.exts[0].data[0] != first {
		t.Fatalf("four pieces moved out of the first piece's buffer (%d extents)", len(sh.ext.exts))
	}
	if _, _, err := st.Prepare("w", seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.CommitPrepared("w", seg); err != nil {
		t.Fatal(err)
	}
	if v := st.segs[seg].versions[1]; &v[0] != first || !bytes.Equal(v, data) {
		t.Error("the version is not the shadow's one buffer")
	}
	if !sameArray(st.segs[seg].sums[1], running) || !st.VerifyVersion(seg, 1) {
		t.Error("the version's sums are not the running ones, or do not match")
	}
}

// TestWriteShadowRefusedByFullDiskLeavesNoTrace: a write the disk has no
// room for must leave the shadow's content and the space accounting exactly
// as they were, or dropping the shadow frees bytes that were never allocated.
func TestWriteShadowRefusedByFullDiskLeavesNoTrace(t *testing.T) {
	const K = 1 << 10
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "tiny", disk.SCSI10K(), 10*K))
	kept := ids.New()
	if err := st.Create(kept, make([]byte, 2*K), 1, 0, false); err != nil {
		t.Fatal(err)
	}
	seg := ids.New()
	first := bytes.Repeat([]byte{'a'}, 4*K)
	st.Shadow("w", seg, 0, 0, 1, 0)
	if _, err := st.WriteShadow("w", seg, 0, first); err != nil {
		t.Fatal(err)
	}
	// 2K + 4K used; 6K more does not fit in 10K.
	if n, err := st.WriteShadow("w", seg, 4*K, bytes.Repeat([]byte{'b'}, 6*K)); err == nil || n != 0 {
		t.Fatalf("write past capacity: n=%d err=%v, want refusal", n, err)
	}
	if used := st.Disk().Used(); used != 6*K {
		t.Errorf("used after refused write = %d, want %d", used, 6*K)
	}
	if got, err := st.ReadShadow("w", seg, 0, 1<<20); err != nil || !bytes.Equal(got, first) {
		t.Errorf("shadow after refused write: %d bytes, err %v; want the first %d only", len(got), err, len(first))
	}
	// Writes that need no more than what is left still land: an overwrite
	// (nothing new) and one that newly covers 3K of its 5K.
	if _, err := st.WriteShadow("w", seg, 0, first); err != nil {
		t.Errorf("overwrite on a full-ish disk: %v", err)
	}
	if _, err := st.WriteShadow("w", seg, 2*K, make([]byte, 5*K)); err != nil {
		t.Errorf("write newly covering 3K with 4K free: %v", err)
	}
	if used := st.Disk().Used(); used != 9*K {
		t.Errorf("used = %d, want %d", used, 9*K)
	}
	st.Drop("w", seg)
	if used := st.Disk().Used(); used != 2*K {
		t.Errorf("used after drop = %d, want the committed %d", used, 2*K)
	}
}
