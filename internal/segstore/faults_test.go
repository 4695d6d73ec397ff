package segstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ids"
)

// commitV2 runs one shadow-write-commit cycle so the segment holds versions
// 1 and 2 (KeepVersions=2 retains both).
func commitV2(t *testing.T, st *Store, seg ids.SegID, p []byte) {
	t.Helper()
	if _, _, err := st.Shadow("s1", seg, 1, time.Minute, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteShadow("s1", seg, 0, p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Prepare("s1", seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.CommitPrepared("s1", seg); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptReadDetected(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("precious bytes"), 1, 0, false)

	if !st.Corrupt(seg) {
		t.Fatal("Corrupt refused an eligible segment")
	}
	if _, _, err := st.Read(seg, 0, 0, 100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read after corruption: err = %v, want ErrCorrupt", err)
	}
	if _, err := st.Fetch(seg, 0, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Fetch after corruption: err = %v, want ErrCorrupt", err)
	}
	is := st.IntegrityStats()
	if is.Detected < 2 || is.InjectedWrite != 1 {
		t.Fatalf("stats = %+v", is)
	}
	if st.VerifyAll() != 1 {
		t.Fatalf("VerifyAll = %d, want 1", st.VerifyAll())
	}
}

func TestCorruptSkipsDirectAndEmpty(t *testing.T) {
	st := newStore(t)
	direct := ids.New()
	st.Create(direct, []byte("raw"), 1, 0, true)
	if st.Corrupt(direct) {
		t.Fatal("Corrupt accepted a direct segment")
	}
	if st.Corrupt(ids.New()) {
		t.Fatal("Corrupt accepted a missing segment")
	}
	if _, ok := st.CorruptAny(); ok {
		t.Fatal("CorruptAny found a target with only direct segments")
	}
}

func TestCorruptAnyDeterministic(t *testing.T) {
	mk := func() (ids.SegID, bool) {
		st := newStore(t)
		st.InjectFaults(FaultConfig{Seed: 42})
		for i := 0; i < 8; i++ {
			seg := ids.SegID{byte(i + 1)}
			st.Create(seg, []byte("payload"), 1, 0, false)
		}
		return st.CorruptAny()
	}
	a, okA := mk()
	b, okB := mk()
	if !okA || !okB || a != b {
		t.Fatalf("CorruptAny not deterministic: %v/%v %v/%v", a, okA, b, okB)
	}
}

func TestWriteFaultBitFlipDetectedOnRead(t *testing.T) {
	st := newStore(t)
	st.InjectFaults(FaultConfig{Seed: 1, BitFlip: 1})
	seg := ids.New()
	// Background replica installs skip the foreground read-back verify, so
	// the armed fault lands silently.
	if err := st.Install(seg, 1, bytes.Repeat([]byte("a"), 4096), nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Read(seg, 0, 0, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
	if st.IntegrityStats().InjectedWrite == 0 {
		t.Fatal("bit-flip fault not counted")
	}
}

func TestWriteFaultTornWriteCorruptsInstall(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("a"), 4096), 1, 0, false)

	// Arm torn-write for a background install of v2: it persists as a prefix
	// of the new bytes with the old contents beyond the tear point.
	st.InjectFaults(FaultConfig{Seed: 3, TornWrite: 1})
	if err := st.Install(seg, 2, bytes.Repeat([]byte("b"), 4096), nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	st.ClearFaults()

	if _, _, err := st.Read(seg, 2, 0, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read(v2) = %v, want ErrCorrupt", err)
	}
	// The prior version was sealed before the fault was armed and still
	// serves — torn writes damage only the version being written.
	if data, _, err := st.Read(seg, 1, 0, 4096); err != nil || data[0] != 'a' {
		t.Fatalf("Read(v1) = %q err %v", data[:1], err)
	}
}

// Foreground commit writes are read-back-verified before the ack (real
// stores verify foreground bursts; background replication relies on the
// scrubber instead), so even a certain write fault cannot silently destroy
// the sole copy of a fresh commit.
func TestCommitWritesImmuneToWriteFaults(t *testing.T) {
	st := newStore(t)
	st.InjectFaults(FaultConfig{Seed: 1, BitFlip: 1})
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("a"), 4096), 1, 0, false)
	commitV2(t, st, seg, bytes.Repeat([]byte("b"), 4096))
	st.ClearFaults()
	if _, _, err := st.Read(seg, 0, 0, 4096); err != nil {
		t.Fatalf("committed read = %v, want clean", err)
	}
	if st.VerifyAll() != 0 {
		t.Fatalf("VerifyAll = %d, want 0", st.VerifyAll())
	}
}

func TestReadFaultInjection(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("ok"), 1, 0, false)
	st.InjectFaults(FaultConfig{Seed: 5, ReadErr: 1})
	if _, _, err := st.Read(seg, 0, 0, 2); !errors.Is(err, ErrReadFault) {
		t.Fatalf("Read = %v, want ErrReadFault", err)
	}
	st.ClearFaults()
	if _, _, err := st.Read(seg, 0, 0, 2); err != nil {
		t.Fatalf("Read after ClearFaults = %v", err)
	}
	if st.IntegrityStats().InjectedRead == 0 {
		t.Fatal("read fault not counted")
	}
}

func TestScrubSegmentDropsCorruptOldVersion(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("a"), 1024), 1, 0, false)
	commitV2(t, st, seg, bytes.Repeat([]byte("b"), 1024))

	// Rot the superseded v1 in place (test-only reach into the store).
	st.mu.Lock()
	s := st.segs[seg]
	v1 := append([]byte(nil), s.versions[1]...)
	v1[100] ^= 0x01
	s.versions[1] = v1
	st.mu.Unlock()

	scanned, dropped, intact := st.ScrubSegment(seg)
	if scanned == 0 || dropped != 1 || !intact {
		t.Fatalf("ScrubSegment = (%d, %d, %v), want (>0, 1, true)", scanned, dropped, intact)
	}
	// Latest still serves; the rotted old version is gone.
	if _, ver, err := st.Read(seg, 0, 0, 10); err != nil || ver != 2 {
		t.Fatalf("Read latest: v%d err %v", ver, err)
	}
	if _, _, err := st.Read(seg, 1, 0, 10); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Read(v1) = %v, want ErrNoVersion", err)
	}
}

func TestScrubSegmentDropsCorruptLatest(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("a"), 1024), 1, 0, false)
	commitV2(t, st, seg, bytes.Repeat([]byte("b"), 1024))
	st.Corrupt(seg) // hits the latest version

	_, dropped, intact := st.ScrubSegment(seg)
	if dropped != 1 || intact {
		t.Fatalf("ScrubSegment = (_, %d, %v), want (1, false)", dropped, intact)
	}
	// The store fell back to the surviving older version.
	if _, ver, err := st.Read(seg, 0, 0, 10); err != nil || ver != 1 {
		t.Fatalf("Read after drop: v%d err %v", ver, err)
	}
}

func TestScrubCleanPassCountsBlocks(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("a"), 1024), 1, 0, false)
	scanned, dropped, intact := st.ScrubSegment(seg)
	if scanned != 1024 || dropped != 0 || !intact {
		t.Fatalf("ScrubSegment = (%d, %d, %v)", scanned, dropped, intact)
	}
	if st.IntegrityStats().VerifiedBlocks == 0 {
		t.Fatal("clean scrub verified no blocks")
	}
}

// Regression: CrashRecover must re-validate committed extents, not trust the
// store blindly — a torn write during the crash window leaves a committed
// version whose bytes do not match its checksums.
func TestCrashRecoverDropsTornCommits(t *testing.T) {
	st := newStore(t)
	survivor := ids.New()
	st.Create(survivor, bytes.Repeat([]byte("a"), 2048), 1, 0, false)

	torn := ids.New()
	st.Create(torn, bytes.Repeat([]byte("c"), 2048), 1, 0, false)
	st.InjectFaults(FaultConfig{Seed: 3, TornWrite: 1})
	if err := st.Install(torn, 2, bytes.Repeat([]byte("d"), 2048), nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	st.ClearFaults()

	used := st.Disk().Used()
	shadows, corrupt := st.CrashRecover()
	if shadows != 0 || corrupt != 1 {
		t.Fatalf("CrashRecover = (%d, %d), want (0, 1)", shadows, corrupt)
	}
	if st.Disk().Used() >= used {
		t.Fatal("dropped version freed no space")
	}
	// The torn v2 is gone; the intact v1 serves again.
	if _, ver, err := st.Read(torn, 0, 0, 10); err != nil || ver != 1 {
		t.Fatalf("torn segment after recover: v%d err %v", ver, err)
	}
	if _, ver, err := st.Read(survivor, 0, 0, 10); err != nil || ver != 1 {
		t.Fatalf("survivor after recover: v%d err %v", ver, err)
	}
	if st.VerifyAll() != 0 {
		t.Fatalf("VerifyAll = %d after recovery", st.VerifyAll())
	}
}

// A single-version segment whose only copy is corrupt disappears entirely at
// crash recovery — the repair path re-replicates it from another node.
func TestCrashRecoverRemovesFullyCorruptSegment(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte("x"), 1024), 1, 0, false)
	st.Corrupt(seg)

	if _, corrupt := st.CrashRecover(); corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", corrupt)
	}
	if _, _, err := st.Read(seg, 0, 0, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read = %v, want ErrNotFound", err)
	}
}

func TestVerifyVersion(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("fine"), 1, 0, false)
	if !st.VerifyVersion(seg, 0) || !st.VerifyVersion(seg, 1) {
		t.Fatal("clean version did not verify")
	}
	st.Corrupt(seg)
	if st.VerifyVersion(seg, 0) {
		t.Fatal("corrupt version verified")
	}
	if st.VerifyVersion(ids.New(), 0) {
		t.Fatal("missing segment verified")
	}
}
