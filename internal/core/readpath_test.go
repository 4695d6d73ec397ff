package core

// Tests for the bulk read path: what ReadAt leaves in the caller's buffer
// (simulated fabric), and, over real loopback TCP, that a piece's reply is
// decoded straight into that buffer and still verified and failed over;
// and for the bulk write path over TCP, that pieces served from a reused
// request frame commit as written.

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/membership"
	"repro/internal/namespace"
	"repro/internal/provider"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sparseFile creates a 4-wide striped file of 64 KiB units holding 1 KiB at
// 0 and one byte at 384 KiB+100, so the stripe units of segments 1 and 3 in
// [0, 384 KiB) were never written, and returns its expected content.
func sparseFile(t *testing.T, cl *Client, path string, direct bool) []byte {
	t.Helper()
	attrs := stripedAttrs(4, 64<<10, 1<<20)
	attrs.VersioningOff = direct
	f, err := cl.Create(path, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 384<<10+101)
	pattern(want[:1<<10], 0)
	want[len(want)-1] = 0x5A
	if _, err := f.WriteAt(want[:1<<10], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(want[len(want)-1:], int64(len(want)-1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// readInto reads [0, n) of path into a buffer pre-filled with 0xFF.
func readInto(t *testing.T, cl *Client, path string, n int) []byte {
	t.Helper()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := bytes.Repeat([]byte{0xFF}, n)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShortPieceReadsAsZeros: a direct segment's sparse region comes back
// short, and ReadAt must zero the rest of the piece rather than leave
// whatever the caller's buffer held.
func TestShortPieceReadsAsZeros(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	want := sparseFile(t, cl, "/direct", true)
	got := readInto(t, cl, "/direct", 384<<10)
	if stale := bytes.Count(got, []byte{0xFF}); !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("sparse direct read differs from the file; %d bytes still hold the caller's 0xFF", stale)
	}
}

// TestNeverWrittenSegmentReadsAsZeros: a versioned file's segment that no
// commit wrote has version 0 in the index and exists on no provider; it
// reads as zeros without asking anyone.
func TestNeverWrittenSegmentReadsAsZeros(t *testing.T) {
	mc := newMiniCluster(t, 4)
	cl := mc.client(t, "c0", nil)
	want := sparseFile(t, cl, "/versioned", false)
	got := readInto(t, cl, "/versioned", len(want))
	if !bytes.Equal(got, want) {
		t.Fatal("read of a file with never-written segments differs from the file")
	}
}

// ---------------------------------------------------------------------------
// over loopback TCP

// tcpFreePort reserves and returns a free loopback TCP port.
func tcpFreePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// tcpDeployment starts a namespace server, n providers and one client, each
// on its own loopback TCP node, with modeled costs off and fast heartbeats
// and repair scans so lazy replication settles in well under a second.
func tcpDeployment(t *testing.T, n int) (*Client, []*provider.Provider) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-time sockets test")
	}
	clock := simtime.Real()
	nsAddr := tcpFreePort(t)
	srv, err := namespace.NewServer(clock, namespace.Config{OpCost: time.Microsecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nsNode, err := transport.ListenTCP(nsAddr, "", nil, testNSHandler{srv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsNode.Close() })

	mcfg := membership.Config{HeartbeatInterval: 50 * time.Millisecond, FailureFactor: 10}
	pcfg := provider.DefaultConfig()
	pcfg.OpCost = provider.NoOpCost
	pcfg.Membership = mcfg
	pcfg.RepairInterval = 100 * time.Millisecond
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = tcpFreePort(t)
	}
	provs := make([]*provider.Provider, n)
	for i, addr := range addrs {
		network := &transport.TCPNetwork{Bind: addr, Seeds: addrs}
		d := disk.New(clock, addr, disk.Model{TransferRate: 1e12}, 1<<30)
		p, err := provider.New(wire.NodeID(addr), clock, pcfg, network, d)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		provs[i] = p
	}
	network := &transport.TCPNetwork{Bind: "127.0.0.1:0", Seeds: addrs}
	cl, err := NewClient("127.0.0.1:0", clock, network, Config{Namespace: wire.NodeID(nsAddr), Membership: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.WaitForProviders(n, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	return cl, provs
}

// TestTCPStripedReadLandsInCallerBuffer: a 1 MiB striped ReadAt over TCP
// decodes each 256 KiB piece into the caller's buffer, so the call
// allocates bookkeeping only. Decoding into fresh memory allocates the
// whole megabyte on every call. The bound is on the least any of the calls
// allocates: a call that finds a frame pool emptied by the GC, or by the
// race detector's random sync.Pool drops, refills it.
func TestTCPStripedReadLandsInCallerBuffer(t *testing.T) {
	cl, _ := tcpDeployment(t, 2)
	want := writeStriped(t, cl, "/bulk", stripedAttrs(4, 256<<10, 1<<20))
	f, err := cl.Open("/bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(want))
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 40; i++ {
		clear(got)
		runtime.ReadMemStats(&before)
		_, err := f.ReadAt(got, 0)
		runtime.ReadMemStats(&after)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
		if i > 0 { // the first call resolves owners and dials
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if least >= 128<<10 {
		t.Fatalf("a 1 MiB striped ReadAt allocates at least %d bytes, want < 128 KiB", least)
	}
}

// TestTCPReadFailsOverPastRottenReplica: with one replica of every segment
// rotten at rest, each piece whose reply would come from it is refused by
// that provider's verification and served from the other replica, and the
// caller's buffer ends up holding the file — nothing of a refused attempt.
func TestTCPReadFailsOverPastRottenReplica(t *testing.T) {
	cl, provs := tcpDeployment(t, 3)
	attrs := stripedAttrs(4, 256<<10, 1<<20)
	attrs.ReplDeg = 2
	want := writeStriped(t, cl, "/rotten", attrs)
	f, err := cl.Open("/rotten")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Wait for lazy replication to give every segment its second copy.
	holders := func(seg ids.SegID) []*provider.Provider {
		var out []*provider.Provider
		for _, p := range provs {
			if p.Store().Stat(seg).Present {
				out = append(out, p)
			}
		}
		return out
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, ref := range f.idx.Segs {
		for len(holders(ref.ID)) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("segment %s has %d replicas, want 2", ref.ID.Short(), len(holders(ref.ID)))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Rot the copy the read would ask first: the one its owner cache names
	// after a warm-up read, else any.
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	detected := func() (n int64) {
		for _, p := range provs {
			n += p.Store().IntegrityStats().Detected
		}
		return n
	}
	for _, ref := range f.idx.Segs {
		victim := holders(ref.ID)[0]
		f.mu.Lock()
		if cached := f.owners[ref.ID]; len(cached) > 0 {
			for _, p := range holders(ref.ID) {
				if p.ID() == cached[0].Node {
					victim = p
				}
			}
		}
		f.mu.Unlock()
		if !victim.Store().Corrupt(ref.ID) {
			t.Fatalf("could not corrupt %s", ref.ID.Short())
		}
	}

	before := detected()
	got = bytes.Repeat([]byte{0xFF}, len(want))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read past rotten replicas returned wrong bytes")
	}
	if detected() == before {
		t.Fatal("no read reached a rotten replica; the test exercised nothing")
	}
}

// TestTCPBackToBackWritesKeepTheirBytes: 64 distinct 256 KiB pieces written
// back to back into one provider over TCP. The provider serves each from its
// pooled request frame, and the next piece reuses that frame, so a handler
// that kept an alias to a payload would commit another piece's bytes. The
// commit, a read-back and every segment's verification against its
// commit-time sums must all see the bytes written.
func TestTCPBackToBackWritesKeepTheirBytes(t *testing.T) {
	const piece = 256 << 10
	cl, provs := tcpDeployment(t, 1)
	attrs := stripedAttrs(4, piece, 64*piece)
	f, err := cl.Create("/back-to-back", attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, attrs.DeclaredSize)
	for i := 0; i < 64; i++ {
		p := want[i*piece : (i+1)*piece]
		pattern(p, int64(i)*7) // a different phase of the pattern per piece
		if _, err := f.WriteAt(p, int64(i*piece)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readInto(t, cl, "/back-to-back", len(want)); !bytes.Equal(got, want) {
		t.Fatal("file read back differs from the pieces written")
	}
	r, err := cl.Open("/back-to-back")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, ref := range r.idx.Segs {
		if !provs[0].Store().VerifyVersion(ref.ID, ref.Version) {
			t.Fatalf("segment %s v%d does not match its commit-time sums", ref.ID.Short(), ref.Version)
		}
	}
}
