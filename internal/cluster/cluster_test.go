package cluster

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/wire"
)

// testCluster brings up a small fast cluster and waits for stability.
func testCluster(t *testing.T, providers int) *Cluster {
	t.Helper()
	c, err := New(Options{
		Providers: providers,
		Scale:     0.0005,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

func newClient(t *testing.T, c *Cluster, name string) *core.Client {
	t.Helper()
	cl, err := c.NewClient(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForProviders(1, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestWriteCommitRead(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")

	f, err := cl.Create("/hello", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello sorrento")
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := cl.Open("/hello")
	if err != nil {
		t.Fatal(err)
	}
	if g.Version() != 1 {
		t.Errorf("version = %d, want 1", g.Version())
	}
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read %q, want %q", buf, payload)
	}
	entry, err := cl.Stat("/hello")
	if err != nil || entry.Size != int64(len(payload)) {
		t.Fatalf("stat = %+v err %v", entry, err)
	}
}

func TestLargeFileSpillsToSegments(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")

	f, err := cl.Create("/big", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 200<<10) // 200 KB > 60 KB attach limit
	rng.Read(payload)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := cl.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != int64(len(payload)) {
		t.Fatalf("size = %d, want %d", g.Size(), len(payload))
	}
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("large file content mismatch")
	}
	// Random-offset read.
	chunk := make([]byte, 1000)
	if _, err := g.ReadAt(chunk, 100000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, payload[100000:101000]) {
		t.Fatal("random-offset read mismatch")
	}
}

func TestUncommittedInvisibleToOthers(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/f", wire.DefaultAttrs())
	f.WriteAt([]byte("v1"), 0)
	f.Close()

	w, err := cl.OpenWrite("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	// A concurrent reader still sees v1.
	r, _ := cl.Open("/f")
	buf := make([]byte, 2)
	r.ReadAt(buf, 0)
	if string(buf) != "v1" {
		t.Fatalf("reader saw %q before commit", buf)
	}
	// The writer sees its own change.
	wbuf := make([]byte, 2)
	w.ReadAt(wbuf, 0)
	if string(wbuf) != "v2" {
		t.Fatalf("writer saw %q of own shadow", wbuf)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, _ := cl.Open("/f")
	r2.ReadAt(buf, 0)
	if string(buf) != "v2" {
		t.Fatalf("after commit read %q", buf)
	}
	if r2.Version() != 2 {
		t.Errorf("version = %d", r2.Version())
	}
}

func TestCommitConflictDetected(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/f", wire.DefaultAttrs())
	f.WriteAt([]byte("base"), 0)
	f.Close()

	w1, _ := cl.OpenWrite("/f")
	w2, _ := cl.OpenWrite("/f")
	w1.WriteAt([]byte("AAAA"), 0)
	w2.WriteAt([]byte("BBBB"), 0)
	if err := w1.Commit(core.CommitOptions{}); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	err := w2.Commit(core.CommitOptions{})
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("second commit err = %v, want ErrConflict", err)
	}
	w2.Drop()
	// The committed state is w1's.
	r, _ := cl.Open("/f")
	buf := make([]byte, 4)
	r.ReadAt(buf, 0)
	if string(buf) != "AAAA" {
		t.Fatalf("content = %q", buf)
	}
}

func TestAtomicAppend(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/log", wire.DefaultAttrs())
	f.Close()

	for i := 0; i < 5; i++ {
		if err := cl.AtomicAppend("/log", []byte("rec;")); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := cl.Open("/log")
	if r.Size() != 20 {
		t.Fatalf("size = %d, want 20", r.Size())
	}
	buf := make([]byte, 20)
	r.ReadAt(buf, 0)
	if string(buf) != "rec;rec;rec;rec;rec;" {
		t.Fatalf("content = %q", buf)
	}
}

func TestAtomicAppendConcurrent(t *testing.T) {
	c := testCluster(t, 4)
	cl1 := newClient(t, c, "c1")
	cl2 := newClient(t, c, "c2")
	f, _ := cl1.Create("/log", wire.DefaultAttrs())
	f.Close()

	done := make(chan error, 2)
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			err = cl1.AtomicAppend("/log", []byte("A"))
		}
		done <- err
	}()
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			err = cl2.AtomicAppend("/log", []byte("B"))
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r, _ := cl1.Open("/log")
	if r.Size() != 6 {
		t.Fatalf("size = %d, want 6 (no lost appends)", r.Size())
	}
	buf := make([]byte, 6)
	r.ReadAt(buf, 0)
	as, bs := 0, 0
	for _, ch := range buf {
		switch ch {
		case 'A':
			as++
		case 'B':
			bs++
		}
	}
	if as != 3 || bs != 3 {
		t.Fatalf("content %q: %d A, %d B", buf, as, bs)
	}
}

func TestReplicationReachesDegree(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 3
	f, _ := cl.Create("/replicated", attrs)
	payload := make([]byte, 100<<10) // spill to a data segment
	f.WriteAt(payload, 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Lazy propagation: repair scans create the extra replicas in the
	// background. Index + 2 data segments on tiny sizing... count copies.
	entry, _ := cl.Stat("/replicated")
	deadline := time.After(20 * time.Second)
	for {
		copies := 0
		for _, p := range c.Providers() {
			if p.Store().Stat(entry.FileID).Present {
				copies++
			}
		}
		if copies >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("index segment reached only %d/3 replicas", copies)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestSyncCommitPropagatesImmediately(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	f, _ := cl.Create("/syncfile", attrs)
	f.WriteAt(make([]byte, 100<<10), 0)
	if err := f.Commit(core.CommitOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDeletesReplicas(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/doomed", wire.DefaultAttrs())
	f.WriteAt(make([]byte, 100<<10), 0)
	f.Close()
	entry, _ := cl.Stat("/doomed")

	if err := cl.Remove("/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/doomed"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("stat after remove: %v", err)
	}
	for id, p := range c.Providers() {
		if p.Store().Stat(entry.FileID).Present {
			t.Errorf("index segment survives on %s", id)
		}
	}
}

func TestDirectoryOperations(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	if err := cl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	f, _ := cl.Create("/docs/a", wire.DefaultAttrs())
	f.Close()
	entries, err := cl.ReadDir("/docs")
	if err != nil || len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("readdir = %+v err %v", entries, err)
	}
	if err := cl.Rmdir("/docs"); err == nil {
		t.Error("rmdir non-empty succeeded")
	}
	cl.Remove("/docs/a")
	if err := cl.Rmdir("/docs"); err != nil {
		t.Fatal(err)
	}
}

func TestStripedMode(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	attrs := wire.FileAttrs{
		Mode: wire.Striped, StripeCount: 4, StripeUnit: 4096,
		DeclaredSize: 256 << 10, ReplDeg: 1, Alpha: 0.5,
	}
	f, err := cl.Create("/striped", attrs)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(9)).Read(payload)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, _ := cl.Open("/striped")
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("striped content mismatch")
	}
}

func TestHybridMode(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	attrs := wire.FileAttrs{Mode: wire.Hybrid, StripeCount: 2, StripeUnit: 4096, ReplDeg: 1, Alpha: 0.5}
	f, err := cl.Create("/hybrid", attrs)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	f.WriteAt(payload, 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, _ := cl.Open("/hybrid")
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("hybrid content mismatch")
	}
}

func TestVersioningOffDirectIO(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	attrs := wire.FileAttrs{
		Mode: wire.Striped, StripeCount: 4, StripeUnit: 4096,
		DeclaredSize: 64 << 10, ReplDeg: 1, Alpha: 0.5, VersioningOff: true,
	}
	f, err := cl.Create("/direct", attrs)
	if err != nil {
		t.Fatal(err)
	}
	// Two "processes" write disjoint byte ranges without commits.
	g, err := cl.Open("/direct")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{'x'}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(bytes.Repeat([]byte{'y'}, 1000), 32<<10); err != nil {
		t.Fatal(err)
	}
	// Both writes are immediately visible to a third reader.
	r, _ := cl.Open("/direct")
	buf := make([]byte, 1000)
	r.ReadAt(buf, 0)
	if buf[0] != 'x' || buf[999] != 'x' {
		t.Fatalf("direct write 1 invisible: %q…", buf[:4])
	}
	r.ReadAt(buf, 32<<10)
	if buf[0] != 'y' {
		t.Fatalf("direct write 2 invisible")
	}
}

func TestGrowingFileAcrossManySegments(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/grow", wire.DefaultAttrs())
	// With 4 KB units, segments are 4 KB × 8 then 32 KB…; write 100 KB in
	// 10 KB chunks across multiple commits.
	payload := make([]byte, 100<<10)
	rand.New(rand.NewSource(5)).Read(payload)
	for off := 0; off < len(payload); off += 10 << 10 {
		end := off + 10<<10
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := f.WriteAt(payload[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	g, _ := cl.Open("/grow")
	if g.Version() == 0 || g.Size() != int64(len(payload)) {
		t.Fatalf("v%d size %d", g.Version(), g.Size())
	}
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("content mismatch after incremental growth")
	}
}

func TestReadAtEOF(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/small", wire.DefaultAttrs())
	f.WriteAt([]byte("abc"), 0)
	f.Close()
	g, _ := cl.Open("/small")
	buf := make([]byte, 10)
	n, err := g.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if _, err := g.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("past-EOF read err = %v", err)
	}
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/ro", wire.DefaultAttrs())
	f.WriteAt([]byte("x"), 0)
	f.Close()
	r, _ := cl.Open("/ro")
	if _, err := r.WriteAt([]byte("y"), 0); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	if _, err := cl.Open("/ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteLockLeases(t *testing.T) {
	c := testCluster(t, 2)
	cl1 := newClient(t, c, "c1")
	cl2 := newClient(t, c, "c2")
	f, _ := cl1.Create("/shared", wire.DefaultAttrs())
	f.Close()

	// Cooperative processes serialize through leases (paper §3.5).
	if err := cl1.AcquireLease("/shared", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := cl2.AcquireLease("/shared", time.Minute); err == nil {
		t.Fatal("second client acquired a held lease")
	}
	if err := cl1.ReleaseLease("/shared"); err != nil {
		t.Fatal(err)
	}
	if err := cl2.AcquireLease("/shared", time.Minute); err != nil {
		t.Fatalf("lease not acquirable after release: %v", err)
	}
}

func TestDropDiscardsChanges(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/keep", wire.DefaultAttrs())
	f.WriteAt([]byte("original"), 0)
	f.Close()

	w, _ := cl.OpenWrite("/keep")
	w.WriteAt([]byte("SCRATCH!"), 0)
	w.Drop() // Figure 4's conflict path: delete the shadow copy

	r, _ := cl.Open("/keep")
	buf := make([]byte, 8)
	r.ReadAt(buf, 0)
	if string(buf) != "original" {
		t.Fatalf("dropped changes leaked: %q", buf)
	}
	if r.Version() != 1 {
		t.Fatalf("version advanced by dropped session: %d", r.Version())
	}
}

func TestSyncCreatesFreshShadowSession(t *testing.T) {
	// Paper §3.5: a sync call commits and the session continues on a fresh
	// shadow based on the new version.
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/s", wire.DefaultAttrs())
	f.WriteAt([]byte("one"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	v1 := f.Version()
	f.WriteAt([]byte("two"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.Version() != v1+1 {
		t.Fatalf("version after two syncs = %d, want %d", f.Version(), v1+1)
	}
	r, _ := cl.Open("/s")
	buf := make([]byte, 3)
	r.ReadAt(buf, 0)
	if string(buf) != "two" {
		t.Fatalf("content = %q", buf)
	}
}

func TestReadSnapshotIsolationAcrossCommit(t *testing.T) {
	// A reader opened at version N keeps reading version N even after
	// another process commits N+1 (versions are immutable).
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/snap", wire.DefaultAttrs())
	f.WriteAt(bytes.Repeat([]byte{'1'}, 100<<10), 0) // beyond attach limit
	f.Close()

	r, _ := cl.Open("/snap") // snapshot at v1
	w, _ := cl.OpenWrite("/snap")
	w.WriteAt(bytes.Repeat([]byte{'2'}, 100<<10), 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if buf[0] != '1' {
		t.Fatalf("snapshot reader saw new version: %q", buf[:4])
	}
}

func TestMilestoneVersionsSurviveConsolidation(t *testing.T) {
	c := testCluster(t, 4)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/versioned", wire.DefaultAttrs())
	f.WriteAt(bytes.Repeat([]byte{'1'}, 100<<10), 0) // v1 (spilled)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Pin v1 as a milestone, then commit several more versions — enough
	// that consolidation would normally reclaim v1 (KeepVersions=2).
	if err := cl.PinMilestone("/versioned", 1); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 5; i++ {
		w, _ := cl.OpenWrite("/versioned")
		w.WriteAt(bytes.Repeat([]byte{byte('0' + i)}, 100<<10), 0)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The milestone is still fully readable...
	old, err := cl.OpenVersion("/versioned", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := old.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if buf[0] != '1' {
		t.Fatalf("milestone content = %q", buf[:4])
	}
	// ...while an unpinned intermediate version was consolidated away.
	if mid, err := cl.OpenVersion("/versioned", 2); err == nil {
		mbuf := make([]byte, 4)
		if _, rerr := mid.ReadAt(mbuf, 0); rerr == nil && mbuf[0] == '2' {
			t.Fatal("unpinned version 2 still fully readable; consolidation inert")
		}
	}
	// Latest still reads correctly.
	cur, _ := cl.Open("/versioned")
	cur.ReadAt(buf, 0)
	if buf[0] != '5' {
		t.Fatalf("latest content = %q", buf[:4])
	}
}

func TestUnpinMilestoneAllowsReclaim(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/m", wire.DefaultAttrs())
	f.WriteAt([]byte("one"), 0)
	f.Close()
	if err := cl.PinMilestone("/m", 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.UnpinMilestone("/m", 1); err != nil {
		t.Fatal(err)
	}
	// No assertion beyond success: reclaim happens at future commits.
}

func TestOpenVersionValidation(t *testing.T) {
	c := testCluster(t, 2)
	cl := newClient(t, c, "c1")
	f, _ := cl.Create("/v", wire.DefaultAttrs())
	f.WriteAt([]byte("x"), 0)
	f.Close()
	if _, err := cl.OpenVersion("/v", 9); err == nil {
		t.Fatal("opened a future version")
	}
}
