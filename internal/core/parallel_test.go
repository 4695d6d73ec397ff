package core

// White-box tests for the parallel data path: the fanout helper, the
// owner-cache behavior the concurrent read path relies on, fan-out error
// semantics on striped files, and shadow-open singleflight. They drive a
// miniature deployment assembled directly from namespace + provider +
// simnet (the cluster harness sits above core and cannot be imported
// without a cycle).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/namespace"
	"repro/internal/provider"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// fanout helper

func TestFanoutRunsAllJobs(t *testing.T) {
	for _, width := range []int{1, 3, 8, 100} {
		var mu sync.Mutex
		seen := make(map[int]bool)
		err := fanout(17, width, func(i int) error {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("width %d: err = %v", width, err)
		}
		if len(seen) != 17 {
			t.Fatalf("width %d: ran %d/17 jobs", width, len(seen))
		}
	}
	if err := fanout(0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatalf("empty fanout: %v", err)
	}
}

func TestFanoutFirstErrorByIndex(t *testing.T) {
	// Every job fails with an index-tagged error. Job 0 is always picked
	// first, so the lowest-index failure is deterministic.
	errs := make([]error, 8)
	for i := range errs {
		errs[i] = fmt.Errorf("job %d", i)
	}
	got := fanout(8, 4, func(i int) error { return errs[i] })
	if got != errs[0] {
		t.Fatalf("returned %v, want %v", got, errs[0])
	}
}

func TestFanoutWidthOneIsSequential(t *testing.T) {
	var order []int
	sentinel := errors.New("stop")
	err := fanout(6, 1, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

func TestFanoutStopsAfterFailure(t *testing.T) {
	// With width 1 past the failure nothing runs; with wider pools at most
	// the already-started jobs complete. Either way the tail must not all
	// run: job 0 fails immediately and 63 jobs follow it.
	var ran int32
	var mu sync.Mutex
	err := fanout(64, 2, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 0 {
			return errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	mu.Lock()
	n := ran
	mu.Unlock()
	if n > 8 {
		t.Fatalf("%d jobs ran after an immediate failure", n)
	}
}

// ---------------------------------------------------------------------------
// mini deployment

type testNSHandler struct{ s *namespace.Server }

func (h testNSHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	return h.s.Handle(req)
}
func (h testNSHandler) HandleCast(wire.NodeID, any) {}

type miniCluster struct {
	clock     *simtime.Clock
	fabric    *simnet.Fabric
	providers map[wire.NodeID]*provider.Provider
}

// newMiniCluster starts nProviders providers; tune, if given, adjusts each
// one's configuration.
func newMiniCluster(t *testing.T, nProviders int, tune ...func(*provider.Config)) *miniCluster {
	t.Helper()
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	ns, err := namespace.NewServer(clock, namespace.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Join("ns", testNSHandler{ns}); err != nil {
		t.Fatal(err)
	}
	mc := &miniCluster{clock: clock, fabric: fabric, providers: make(map[wire.NodeID]*provider.Provider)}
	for i := 0; i < nProviders; i++ {
		id := wire.NodeID(fmt.Sprintf("p%02d", i))
		cfg := provider.Config{Seed: int64(i + 1)}
		for _, fn := range tune {
			fn(&cfg)
		}
		d := disk.New(clock, string(id), disk.SCSI10K(), 8<<30)
		p, err := provider.New(id, clock, cfg, fabric, d)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		mc.providers[id] = p
	}
	t.Cleanup(func() {
		for _, p := range mc.providers {
			p.Stop()
		}
	})
	return mc
}

func (mc *miniCluster) client(t *testing.T, name string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{Namespace: "ns"}
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := NewClient(name, mc.clock, mc.fabric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.WaitForProviders(len(mc.providers), 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return cl
}

func stripedAttrs(segs int, unit, size int64) wire.FileAttrs {
	return wire.FileAttrs{
		Mode: wire.Striped, StripeCount: segs, StripeUnit: unit,
		DeclaredSize: size, ReplDeg: 1, Alpha: 0.5,
	}
}

// pattern fills b with a position-dependent byte so corruption is visible.
func pattern(b []byte, base int64) {
	for i := range b {
		b[i] = byte((base + int64(i)) * 131 % 251)
	}
}

// writeStriped creates and commits a striped file covering size bytes.
func writeStriped(t *testing.T, cl *Client, path string, attrs wire.FileAttrs) []byte {
	t.Helper()
	f, err := cl.Create(path, attrs)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, attrs.DeclaredSize)
	pattern(data, 0)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return data
}

// ---------------------------------------------------------------------------
// owner cache (satellite: cache hit, stale invalidation, home fallback)

func TestOwnerCacheReadPath(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	attrs := stripedAttrs(4, 4096, 4*2*4096)
	want := writeStriped(t, cl, "/cache", attrs)

	f, err := cl.Open("/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seg := f.idx.Segs[0].ID

	// First read resolves and caches the data segments' owners.
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("first read returned wrong bytes")
	}
	f.mu.Lock()
	cached := f.owners[seg]
	f.mu.Unlock()
	if len(cached) == 0 {
		t.Fatal("owner cache not populated by read")
	}

	// Cache hit: a second read must serve from the cached entry without
	// replacing it (the map value survives untouched).
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	after := f.owners[seg]
	f.mu.Unlock()
	if len(after) != len(cached) || &after[0] != &cached[0] {
		t.Fatal("cache-hit read replaced the owner cache entry")
	}

	// Stale entry: poison the cache with a node that does not exist. The
	// read must invalidate the entry (delete(f.owners, ...)), fall back to
	// the home host's serve-or-redirect, and still return correct bytes.
	f.mu.Lock()
	f.owners[seg] = []wire.OwnerInfo{{Node: "ghost", Version: 1}}
	f.mu.Unlock()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read after stale cache returned wrong bytes")
	}
	f.mu.Lock()
	repaired := f.owners[seg]
	f.mu.Unlock()
	if len(repaired) == 0 {
		t.Fatal("stale entry not re-resolved")
	}
	for _, o := range repaired {
		if o.Node == "ghost" {
			t.Fatalf("stale owner survived invalidation: %v", repaired)
		}
	}
}

// ---------------------------------------------------------------------------
// fan-out error semantics (satellite: first error, no corruption, no leaks)

func TestStripedReadProviderErrorMidFanout(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	attrs := stripedAttrs(4, 4096, 4*2*4096)
	want := writeStriped(t, cl, "/readfail", attrs)

	f, err := cl.Open("/readfail")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Vaporize one data segment everywhere: reads of its pieces fail after
	// exhausting cache, home redirect, and the multicast probe, while the
	// other three segments keep serving.
	// (The location tables may still name the dead owner; the read path
	// must survive the redirect-to-nowhere and fail only after the
	// multicast probe also comes up empty.)
	victim := f.idx.Segs[1].ID
	for _, p := range mc.providers {
		p.Store().Delete(victim)
	}

	before := runtime.NumGoroutine()
	const sentinel = 0xAA
	got := make([]byte, len(want))
	for i := range got {
		got[i] = sentinel
	}
	_, err = f.ReadAt(got, 0)
	if err == nil {
		t.Fatal("read of vaporized segment succeeded")
	}
	// No partial-buffer corruption: every byte is either untouched
	// sentinel (its piece failed or never ran) or the correct file byte.
	for i, b := range got {
		if b != sentinel && b != want[i] {
			t.Fatalf("byte %d corrupted: %#x (want %#x or sentinel)", i, b, want[i])
		}
	}
	// Workers exit after the error: the goroutine count settles back.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStripedWriteProviderErrorMidFanout(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	attrs := stripedAttrs(4, 4096, 4*2*4096)

	f, err := cl.Create("/writefail", attrs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, attrs.DeclaredSize)
	pattern(buf, 0)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	// Kill one segment's shadow behind the session's back: the next write
	// to it fails with ErrNoShadow from the provider, mid-fan-out.
	f.mu.Lock()
	victim := f.idx.Segs[2].ID
	node := f.dirty[victim].node
	owner := f.owner
	f.mu.Unlock()
	if err := mc.providers[node].Store().Drop(owner, victim); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	n, err := f.WriteAt(buf, 0)
	if err == nil {
		t.Fatal("write to dropped shadow succeeded")
	}
	if n != 0 {
		t.Fatalf("failed write reported %d bytes", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.Drop()
}

// ---------------------------------------------------------------------------
// shadow-open singleflight under concurrent WriteAt

func TestConcurrentWriteAtSingleShadowPerSegment(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	const segs, unit = 4, 4096
	attrs := stripedAttrs(segs, unit, segs*4*unit)

	f, err := cl.Create("/concurrent", attrs)
	if err != nil {
		t.Fatal(err)
	}
	// 8 writers × disjoint 8 KB slices; every writer's range strides the
	// stripe so all four segments race their first ensureShadow.
	want := make([]byte, attrs.DeclaredSize)
	pattern(want, 0)
	var wg sync.WaitGroup
	werrs := make([]error, 8)
	chunk := int64(len(want)) / 8
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := int64(w) * chunk
			_, werrs[w] = f.WriteAt(want[off:off+chunk], off)
		}(w)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Exactly one shadow exists per data segment across the cluster: the
	// singleflight collapsed concurrent ensureShadow calls, leaving no
	// orphan shadows on doubly-placed providers.
	f.mu.Lock()
	if len(f.dirty) != segs {
		t.Fatalf("dirty segments = %d, want %d", len(f.dirty), segs)
	}
	segIDs := make([]ids.SegID, 0, segs)
	for _, ref := range f.idx.Segs {
		segIDs = append(segIDs, ref.ID)
	}
	f.mu.Unlock()
	for _, seg := range segIDs {
		holders := 0
		for _, p := range mc.providers {
			if p.Store().Stat(seg).HasShadow {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("segment %s has shadows on %d providers", seg.Short(), holders)
		}
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := cl.Open("/concurrent")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got := make([]byte, len(want))
	if _, err := rf.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent writes committed wrong bytes")
	}
}
