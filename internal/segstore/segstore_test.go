package segstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
)

func newStore(t testing.TB) *Store {
	t.Helper()
	clock := simtime.NewClock(0.0001)
	d := disk.New(clock, "test", disk.SCSI10K(), 1<<30)
	return New(clock, d)
}

func TestCreateAndRead(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	if err := st.Create(seg, []byte("hello world"), 1, 0, false); err != nil {
		t.Fatal(err)
	}
	data, ver, err := st.Read(seg, 0, 0, 100)
	if err != nil || ver != 1 || string(data) != "hello world" {
		t.Fatalf("Read = %q v%d err %v", data, ver, err)
	}
	data, _, err = st.Read(seg, 0, 6, 5)
	if err != nil || string(data) != "world" {
		t.Fatalf("offset Read = %q err %v", data, err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("x"), 1, 0, false)
	if err := st.Create(seg, []byte("y"), 1, 0, false); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestReadMissing(t *testing.T) {
	st := newStore(t)
	if _, _, err := st.Read(ids.New(), 0, 0, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestShadowCommitFlow(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("aaaaaaaaaa"), 1, 0, false)

	created, size, err := st.Shadow("s1", seg, 1, time.Minute, 1, 0)
	if err != nil || !created || size != 10 {
		t.Fatalf("Shadow: created=%v size=%d err=%v", created, size, err)
	}
	if _, err := st.WriteShadow("s1", seg, 2, []byte("XX")); err != nil {
		t.Fatal(err)
	}
	// Committed view unchanged until commit.
	data, ver, _ := st.Read(seg, 0, 0, 10)
	if string(data) != "aaaaaaaaaa" || ver != 1 {
		t.Fatalf("committed view changed early: %q v%d", data, ver)
	}
	// Shadow view shows the write (read-your-writes).
	sdata, err := st.ReadShadow("s1", seg, 0, 10)
	if err != nil || string(sdata) != "aaXXaaaaaa" {
		t.Fatalf("shadow view = %q err %v", sdata, err)
	}

	planned, _, err := st.Prepare("s1", seg)
	if err != nil || planned != 2 {
		t.Fatalf("Prepare: v%d err %v", planned, err)
	}
	ver, size, err = st.CommitPrepared("s1", seg)
	if err != nil || ver != 2 || size != 10 {
		t.Fatalf("Commit: v%d size %d err %v", ver, size, err)
	}
	data, ver, _ = st.Read(seg, 0, 0, 10)
	if string(data) != "aaXXaaaaaa" || ver != 2 {
		t.Fatalf("after commit: %q v%d", data, ver)
	}
	// Old version still readable (KeepVersions=2).
	data, _, err = st.Read(seg, 1, 0, 10)
	if err != nil || string(data) != "aaaaaaaaaa" {
		t.Fatalf("old version: %q err %v", data, err)
	}
}

func TestShadowGrowsFile(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("ab"), 1, 0, false)
	st.Shadow("s1", seg, 0, 0, 1, 0)
	st.WriteShadow("s1", seg, 5, []byte("Z"))
	st.Prepare("s1", seg)
	_, size, err := st.CommitPrepared("s1", seg)
	if err != nil || size != 6 {
		t.Fatalf("size = %d err %v", size, err)
	}
	data, _, _ := st.Read(seg, 0, 0, 10)
	want := []byte{'a', 'b', 0, 0, 0, 'Z'}
	if !bytes.Equal(data, want) {
		t.Fatalf("data = %v, want %v", data, want)
	}
}

func TestShadowOfNewSegment(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	created, size, err := st.Shadow("s1", seg, 0, 0, 2, 0)
	if err != nil || !created || size != 0 {
		t.Fatalf("Shadow new: %v %d %v", created, size, err)
	}
	st.WriteShadow("s1", seg, 0, []byte("fresh"))
	planned, _, _ := st.Prepare("s1", seg)
	if planned != 1 {
		t.Fatalf("planned = %d, want 1", planned)
	}
	st.CommitPrepared("s1", seg)
	data, ver, _ := st.Read(seg, 0, 0, 10)
	if string(data) != "fresh" || ver != 1 {
		t.Fatalf("new segment: %q v%d", data, ver)
	}
	if st.Stat(seg).ReplDeg != 2 {
		t.Errorf("ReplDeg = %d, want 2", st.Stat(seg).ReplDeg)
	}
}

func TestShadowDroppedNewSegmentDisappears(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Shadow("s1", seg, 0, 0, 1, 0)
	st.WriteShadow("s1", seg, 0, []byte("temp"))
	st.Drop("s1", seg)
	if st.Stat(seg).Present || st.Len() != 0 {
		t.Error("dropped new segment still present")
	}
	if st.Disk().Used() != 0 {
		t.Errorf("disk used = %d after drop", st.Disk().Used())
	}
}

func TestConcurrentShadowsIndependent(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("alice", seg, 0, 0, 1, 0)
	st.Shadow("bob", seg, 0, 0, 1, 0)
	st.WriteShadow("alice", seg, 0, []byte("A"))
	st.WriteShadow("bob", seg, 0, []byte("B"))
	a, _ := st.ReadShadow("alice", seg, 0, 4)
	b, _ := st.ReadShadow("bob", seg, 0, 4)
	if string(a) != "Aase" || string(b) != "Base" {
		t.Fatalf("shadow isolation broken: %q %q", a, b)
	}
}

func TestPrepareSerializesCommits(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("alice", seg, 0, 0, 1, 0)
	st.Shadow("bob", seg, 0, 0, 1, 0)
	if _, _, err := st.Prepare("alice", seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Prepare("bob", seg); !errors.Is(err, ErrPrepared) {
		t.Fatalf("second Prepare err = %v, want ErrPrepared", err)
	}
	st.CommitPrepared("alice", seg)
	// Now bob can prepare; his shadow commits as version 3 on top.
	planned, _, err := st.Prepare("bob", seg)
	if err != nil || planned != 3 {
		t.Fatalf("bob Prepare after alice commit: v%d err %v", planned, err)
	}
}

func TestAbortReleasesCommitSlot(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("alice", seg, 0, 0, 1, 0)
	st.Prepare("alice", seg)
	if err := st.AbortPrepared("alice", seg); err != nil {
		t.Fatal(err)
	}
	st.Shadow("bob", seg, 0, 0, 1, 0)
	if _, _, err := st.Prepare("bob", seg); err != nil {
		t.Fatalf("Prepare after abort: %v", err)
	}
	// Alice's shadow is gone.
	if _, err := st.ReadShadow("alice", seg, 0, 1); !errors.Is(err, ErrNoShadow) {
		t.Fatalf("aborted shadow still readable: %v", err)
	}
}

func TestWriteShadowAfterPrepareRejected(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s", seg, 0, 0, 1, 0)
	st.Prepare("s", seg)
	if _, err := st.WriteShadow("s", seg, 0, []byte("x")); !errors.Is(err, ErrPrepared) {
		t.Fatalf("write after prepare: %v", err)
	}
}

func TestCommitUnpreparedRejected(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s", seg, 0, 0, 1, 0)
	if _, _, err := st.CommitPrepared("s", seg); !errors.Is(err, ErrUnprepared) {
		t.Fatalf("commit unprepared: %v", err)
	}
}

func TestVersionConsolidation(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("v1"), 1, 0, false)
	for i := 0; i < 4; i++ {
		st.Shadow("s", seg, 0, 0, 1, 0)
		st.WriteShadow("s", seg, 0, []byte{byte('2' + i)})
		st.Prepare("s", seg)
		st.CommitPrepared("s", seg)
	}
	// Latest is 5; versions 1..3 must be consolidated away.
	if _, _, err := st.Read(seg, 1, 0, 2); !errors.Is(err, ErrNoVersion) {
		t.Errorf("version 1 still present: %v", err)
	}
	if _, _, err := st.Read(seg, 4, 0, 2); err != nil {
		t.Errorf("version 4 missing: %v", err)
	}
	if _, _, err := st.Read(seg, 5, 0, 2); err != nil {
		t.Errorf("version 5 missing: %v", err)
	}
}

func TestShadowExpiration(t *testing.T) {
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "t", disk.SCSI10K(), 1<<30))
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s", seg, 0, time.Second, 1, 0)
	clock.Sleep(2 * time.Second)
	if n := st.ExpireShadows(); n != 1 {
		t.Fatalf("ExpireShadows = %d, want 1", n)
	}
	if _, _, err := st.Prepare("s", seg); !errors.Is(err, ErrNoShadow) {
		t.Fatalf("expired shadow preparable: %v", err)
	}
}

func TestExpiredShadowRejectedAtPrepare(t *testing.T) {
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "t", disk.SCSI10K(), 1<<30))
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s", seg, 0, time.Second, 1, 0)
	clock.Sleep(2 * time.Second)
	if _, _, err := st.Prepare("s", seg); !errors.Is(err, ErrExpired) {
		t.Fatalf("Prepare on expired shadow: %v", err)
	}
}

func TestRenewExtendsExpiry(t *testing.T) {
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "t", disk.SCSI10K(), 1<<30))
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s", seg, 0, time.Second, 1, 0)
	clock.Sleep(700 * time.Millisecond)
	// A generous TTL keeps the test robust against wall-sleep granularity
	// being inflated by the 0.0001 scale.
	if err := st.Renew("s", seg, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(2 * time.Second)
	if n := st.ExpireShadows(); n != 0 {
		t.Fatalf("renewed shadow expired")
	}
}

func TestInstallAndStaleInstallIgnored(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	if err := st.Install(seg, 3, []byte("v3"), nil, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Install(seg, 2, []byte("v2"), nil, 2, 0); err != nil {
		t.Fatal(err)
	}
	data, ver, _ := st.Read(seg, 0, 0, 10)
	if ver != 3 || string(data) != "v3" {
		t.Fatalf("after stale install: %q v%d", data, ver)
	}
}

func TestInstallVersionZeroRejected(t *testing.T) {
	st := newStore(t)
	if err := st.Install(ids.New(), 0, []byte("x"), nil, 1, 0); err == nil {
		t.Fatal("Install v0 succeeded")
	}
}

func TestFetch(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("payload"), 3, 0.7, false)
	r, err := st.Fetch(seg, 0, 0)
	if err != nil || r.Version != 1 || string(r.Data) != "payload" || r.ReplDeg != 3 || r.LocalityThreshold != 0.7 {
		t.Fatalf("Fetch = %q v%d rd%d lt%v err %v", r.Data, r.Version, r.ReplDeg, r.LocalityThreshold, err)
	}
}

func TestDirectSegment(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("abc"), 1, 0, true)
	if err := st.WriteDirect(seg, 1, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	data, ver, _ := st.Read(seg, 0, 0, 10)
	if string(data) != "aXYZ" || ver != 1 {
		t.Fatalf("direct write: %q v%d", data, ver)
	}
	if _, _, err := st.Shadow("s", seg, 0, 0, 1, 0); !errors.Is(err, ErrIsDirect) {
		t.Fatalf("shadow on direct segment: %v", err)
	}
}

func TestWriteDirectOnVersionedRejected(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("abc"), 1, 0, false)
	if err := st.WriteDirect(seg, 0, []byte("x")); !errors.Is(err, ErrNotDirect) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, make([]byte, 1000), 1, 0, false)
	used := st.Disk().Used()
	if used != 1000 {
		t.Fatalf("used = %d", used)
	}
	if err := st.Delete(seg); err != nil {
		t.Fatal(err)
	}
	if st.Disk().Used() != 0 {
		t.Errorf("used after delete = %d", st.Disk().Used())
	}
	if err := st.Delete(seg); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestListAndSegments(t *testing.T) {
	st := newStore(t)
	a, b := ids.New(), ids.New()
	st.Create(a, []byte("a"), 2, 0, false)
	st.Create(b, []byte("bb"), 1, 0, false)
	// An uncommitted brand-new shadow must not be listed.
	st.Shadow("s", ids.New(), 0, 0, 1, 0)
	list := st.List()
	if len(list) != 2 {
		t.Fatalf("List len = %d", len(list))
	}
	if st.Len() != 2 || len(st.Segments()) != 2 {
		t.Errorf("Len/Segments mismatch")
	}
	for _, e := range list {
		if e.Seg == a && (e.ReplDeg != 2 || e.Size != 1 || e.Version != 1) {
			t.Errorf("entry a = %+v", e)
		}
	}
}

func TestStat(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("abcd"), 2, 0, false)
	s := st.Stat(seg)
	if !s.Present || s.Version != 1 || s.Size != 4 || s.HasShadow || s.ReplDeg != 2 {
		t.Errorf("Stat = %+v", s)
	}
	st.Shadow("x", seg, 0, 0, 1, 0)
	if !st.Stat(seg).HasShadow {
		t.Error("HasShadow false with open shadow")
	}
	if st.Stat(ids.New()).Present {
		t.Error("missing segment reported present")
	}
}

func TestLastAccessAdvances(t *testing.T) {
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "t", disk.SCSI10K(), 1<<30))
	seg := ids.New()
	st.Create(seg, []byte("x"), 1, 0, false)
	t0, ok := st.LastAccess(seg)
	if !ok {
		t.Fatal("LastAccess not found")
	}
	clock.Sleep(time.Second)
	st.Read(seg, 0, 0, 1)
	t1, _ := st.LastAccess(seg)
	if t1 <= t0 {
		t.Errorf("LastAccess did not advance: %v -> %v", t0, t1)
	}
}

func TestDiskAccountingThroughCommitCycle(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, make([]byte, 100), 1, 0, false)
	st.Shadow("s", seg, 0, 0, 1, 0)
	st.WriteShadow("s", seg, 0, make([]byte, 50))
	st.Prepare("s", seg)
	st.CommitPrepared("s", seg)
	// Two committed versions of 100 bytes each.
	if used := st.Disk().Used(); used != 200 {
		t.Errorf("used = %d, want 200", used)
	}
	st.Delete(seg)
	if used := st.Disk().Used(); used != 0 {
		t.Errorf("used after delete = %d", used)
	}
}

func TestPrepareIdempotentForSameOwner(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	st.Shadow("s1", seg, 1, time.Minute, 1, 0)
	st.WriteShadow("s1", seg, 0, []byte("X"))
	p1, _, err := st.Prepare("s1", seg)
	if err != nil {
		t.Fatal(err)
	}
	// A retried prepare (lost response) must return the same planned version.
	p2, _, err := st.Prepare("s1", seg)
	if err != nil || p2 != p1 {
		t.Fatalf("re-prepare: v%d err %v, want v%d", p2, err, p1)
	}
	if _, _, err := st.CommitPrepared("s1", seg); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverKeepsCommittedDropsVolatile(t *testing.T) {
	st := newStore(t)
	committed := ids.New()
	st.Create(committed, []byte("durable"), 1, 0, false)

	// An in-flight session: shadow on the committed segment, prepared.
	st.Shadow("s1", committed, 1, time.Minute, 1, 0)
	st.WriteShadow("s1", committed, 0, []byte("WIP"))
	if _, _, err := st.Prepare("s1", committed); err != nil {
		t.Fatal(err)
	}
	// A brand-new segment that exists only as a shadow.
	fresh := ids.New()
	st.Shadow("s1", fresh, 0, time.Minute, 1, 0)
	st.WriteShadow("s1", fresh, 0, []byte("lost"))

	used := st.Disk().Used()
	if n, _ := st.CrashRecover(); n != 2 {
		t.Fatalf("CrashRecover dropped %d shadows, want 2", n)
	}
	if st.Disk().Used() >= used {
		t.Fatalf("crash recovery freed no shadow space: %d -> %d", used, st.Disk().Used())
	}

	// Committed data survives at its committed version.
	data, ver, err := st.Read(committed, 0, 0, 10)
	if err != nil || ver != 1 || string(data) != "durable" {
		t.Fatalf("after recover: %q v%d err %v", data, ver, err)
	}
	// The shadow-only segment is gone entirely.
	if _, _, err := st.Read(fresh, 0, 0, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fresh segment err = %v, want ErrNotFound", err)
	}
	// The commit slot is free: a new session can prepare and commit.
	st.Shadow("s2", committed, 1, time.Minute, 1, 0)
	st.WriteShadow("s2", committed, 0, []byte("next"))
	if _, _, err := st.Prepare("s2", committed); err != nil {
		t.Fatalf("post-recovery prepare: %v", err)
	}
	if _, _, err := st.CommitPrepared("s2", committed); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}
