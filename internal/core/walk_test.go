package core

// Tests for the owner walk: every "who holds segment S at version ≥ v"
// question goes to the File's cached owners, the home host, the owners it
// names and the multicast probe, in that order, and never to an owner
// behind v.

import (
	"context"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/provider"
	"repro/internal/transport"
	"repro/internal/wire"
)

// quietProviders keeps the home hosts' repair scan, content refresh and
// migration from touching a location table a test has set up by hand, and
// has the refresh toward a newly joined provider done before the test starts.
func quietProviders(cfg *provider.Config) {
	cfg.JoinDelayMax = time.Millisecond
	cfg.RepairInterval = time.Hour
	cfg.RefreshInterval = time.Hour
	cfg.Migration.Enabled = false
}

// commitAt writes data at 0 of path in one session and commits it.
func commitAt(t *testing.T, cl *Client, path string, data []byte) {
	t.Helper()
	f, err := cl.OpenWrite(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// holder returns the one provider holding seg at version ver, once the
// segment's home host lists it there.
func holder(t *testing.T, mc *miniCluster, cl *Client, seg ids.SegID, ver uint64) wire.NodeID {
	t.Helper()
	var x wire.NodeID
	for id, p := range mc.providers {
		if p.Store().Stat(seg).Version == ver {
			x = id
		}
	}
	if x == "" {
		t.Fatalf("no provider holds %s at v%d", seg.Short(), ver)
	}
	home := mc.providers[cl.members.HomeOf(seg)]
	deadline := time.Now().Add(10 * time.Second)
	for !hasOwner(home.Table().Owners(seg), wire.OwnerInfo{Node: x, Version: ver}) {
		if time.Now().After(deadline) {
			t.Fatalf("home host never listed %s at v%d", x, ver)
		}
		time.Sleep(time.Millisecond)
	}
	return x
}

func hasOwner(owners []wire.OwnerInfo, want wire.OwnerInfo) bool {
	for _, o := range owners {
		if o == want {
			return true
		}
	}
	return false
}

// other returns a provider that is not x.
func other(mc *miniCluster, x wire.NodeID) wire.NodeID {
	for id := range mc.providers {
		if id != x {
			return id
		}
	}
	return ""
}

// readAll returns the content of path's latest version as cl sees it.
func readAll(t *testing.T, cl *Client, path string) (string, uint64) {
	t.Helper()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return string(buf), f.Version()
}

// laggingIndexReplica commits "v1" and "v2" of /f (R=1) from c0 on three
// providers and installs the v1 index on a second provider y, behind the
// location layer's back. It returns c0, the index's ID, the owner x of v2,
// and y.
func laggingIndexReplica(t *testing.T) (*miniCluster, *Client, ids.SegID, wire.NodeID, wire.NodeID) {
	t.Helper()
	mc := newMiniCluster(t, 3, quietProviders)
	c0 := mc.client(t, "c0", nil)
	f, err := c0.Create("/f", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fid := f.entry.FileID
	v1, _, err := c0.readWhole(fid, 1)
	if err != nil {
		t.Fatal(err)
	}
	commitAt(t, c0, "/f", []byte("v2"))
	x := holder(t, mc, c0, fid, 2)
	y := other(mc, x)
	if err := mc.providers[y].Store().Install(fid, 1, v1, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	return mc, c0, fid, x, y
}

// TestCommitPublishesPastAStaleCoLocatedReplica: a writer co-located with a
// replica of the index one version behind must prepare the index where the
// session's base version lives. Prepared on the stale replica, the index
// plans the base version again, the namespace records it twice, Close
// returns nil and readers keep the old bytes: an acknowledged write is lost.
func TestCommitPublishesPastAStaleCoLocatedReplica(t *testing.T) {
	for _, via := range []string{"owner cache", "home table"} {
		t.Run(via, func(t *testing.T) {
			mc, c0, fid, x, y := laggingIndexReplica(t)
			if via == "home table" {
				// What the home host learns when y announces its copy.
				home := mc.providers[c0.members.HomeOf(fid)]
				home.Table().Update(y, wire.LocEntry{Seg: fid, Version: 1, Size: 2, ReplDeg: 1}, false)
			}
			c1 := mc.client(t, "c1", func(cfg *Config) { cfg.Host = y })
			f, err := c1.OpenWrite("/f")
			if err != nil {
				t.Fatal(err)
			}
			lagging := []wire.OwnerInfo{{Node: x, Version: 2}, {Node: y, Version: 1}}
			f.mu.Lock()
			if via == "owner cache" {
				f.owners[fid] = lagging
			}
			cached := f.owners[fid]
			f.mu.Unlock()
			if !hasOwner(cached, lagging[0]) || !hasOwner(cached, lagging[1]) {
				t.Fatalf("owner cache %v, want the lagging list %v", cached, lagging)
			}
			if _, err := f.WriteAt([]byte("v3"), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got, ver := readAll(t, c0, "/f"); got != "v3" || ver != 3 {
				t.Fatalf("after the acknowledged commit: %q at v%d, want \"v3\" at v3", got, ver)
			}
		})
	}
}

// TestCommitRefusesAnIndexPlanBehindTheBase: when the walk is misled — the
// cache says y holds the base version, as a table may say of a provider that
// restarted behind it — y plans the base version again. The coordinator must
// abort that round before phase two instead of publishing a version number
// twice.
func TestCommitRefusesAnIndexPlanBehindTheBase(t *testing.T) {
	mc, c0, fid, _, y := laggingIndexReplica(t)
	c1 := mc.client(t, "c1", func(cfg *Config) { cfg.Host = y })
	f, err := c1.OpenWrite("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.owners[fid] = []wire.OwnerInfo{{Node: y, Version: 2}}
	f.mu.Unlock()
	if _, err := f.WriteAt([]byte("v3"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close published an index prepared on a replica behind the session's base")
	}
	if got, ver := readAll(t, c0, "/f"); got != "v2" || ver != 2 {
		t.Fatalf("after the refused commit: %q at v%d, want \"v2\" at v2", got, ver)
	}
	if st := mc.providers[y].Store().Stat(fid); st.Version != 1 || st.HasShadow {
		t.Fatalf("stale replica after the refused round: %+v, want v1 and no shadow", st)
	}
}

// TestShadowOpenProbesPastAStaleHomeAnswer: the home host of a data segment
// names only an owner behind the version the index references, and the
// current owner answers only the multicast probe. Opening the shadow must
// probe past the stale answer instead of failing with "no current replica".
func TestShadowOpenProbesPastAStaleHomeAnswer(t *testing.T) {
	mc := newMiniCluster(t, 3, quietProviders)
	c0 := mc.client(t, "c0", nil)
	attrs := stripedAttrs(2, 4096, 2*4096)
	want := writeStriped(t, c0, "/s", attrs)
	copy(want, "two!")
	commitAt(t, c0, "/s", want[:4])
	r, err := c0.Open("/s")
	if err != nil {
		t.Fatal(err)
	}
	ref := r.idx.Segs[0]
	r.Close()
	if ref.Version != 2 {
		t.Fatalf("segment 0 at v%d after two commits, want v2", ref.Version)
	}
	x := holder(t, mc, c0, ref.ID, 2)
	home := mc.providers[c0.members.HomeOf(ref.ID)].Table()
	home.Update(x, wire.LocEntry{Seg: ref.ID}, true)
	home.Update(other(mc, x), wire.LocEntry{Seg: ref.ID, Version: 1, ReplDeg: 1}, false)

	c1 := mc.client(t, "c1", nil)
	f, err := c1.OpenWrite("/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("new!"), 0); err != nil {
		t.Fatalf("write into a segment whose home host names only a stale owner: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	copy(want, "new!")
	if got, _ := readAll(t, c0, "/s"); got != string(want) {
		t.Fatalf("read back %q..., want %q...", got[:8], want[:8])
	}
}

// failingPrepares fails the index leg of the next n commits' rounds with a
// timeout, as a lost participant would.
type failingPrepares struct {
	transport.Endpoint
	n atomic.Int32
}

func (e *failingPrepares) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	if m, ok := req.(wire.SegShadow); ok && m.Prepare && e.n.Add(-1) >= 0 {
		return nil, transport.ErrTimeout
	}
	return e.Endpoint.Call(ctx, to, req)
}

// TestCommitRetryReplaysOntoTheBaseVersions: a round that loses the index
// leg after its data segments were prepared aborts and replays the journal
// onto fresh shadows. Those shadows must be based on the versions the
// session's index referenced before the round, not on the versions the
// aborted round planned, which no provider holds.
func TestCommitRetryReplaysOntoTheBaseVersions(t *testing.T) {
	mc := newMiniCluster(t, 3)
	c0 := mc.client(t, "c0", nil)
	want := writeStriped(t, c0, "/r", stripedAttrs(2, 4096, 2*4096))
	cl := mc.client(t, "c1", nil)
	ep := &failingPrepares{Endpoint: cl.ep}
	cl.ep = ep
	f, err := cl.OpenWrite("/r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("new!"), 0); err != nil {
		t.Fatal(err)
	}
	ep.n.Store(int32(cl.cfg.Retry.MaxAttempts)) // every try of the first round
	if err := f.Close(); err != nil {
		t.Fatalf("commit after one lost index leg: %v", err)
	}
	copy(want, "new!")
	if got, ver := readAll(t, c0, "/r"); got != string(want) || ver != 2 {
		t.Fatalf("read back %q... at v%d, want %q... at v2", got[:8], ver, want[:8])
	}
}

// failingCompletes fails every NSCommitComplete with a timeout while on, as
// a partitioned namespace server or a lost reply would: the index has
// committed on its provider, the namespace has not recorded it.
type failingCompletes struct {
	transport.Endpoint
	on atomic.Bool
}

func (e *failingCompletes) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	if _, ok := req.(wire.NSCommitComplete); ok && e.on.Load() {
		return nil, transport.ErrTimeout
	}
	return e.Endpoint.Call(ctx, to, req)
}

// TestCommitAfterALostNamespaceRecord: when a round's index commit succeeds
// but the namespace never records it, the provider's index is a version past
// the namespace. Later sessions walk to that provider, which plans past the
// next number; the commit guard must let that through, or no commit to the
// file could succeed again. The failing client runs one round per commit, so
// the version the namespace still names is among those the provider keeps.
func TestCommitAfterALostNamespaceRecord(t *testing.T) {
	mc := newMiniCluster(t, 3)
	c0 := mc.client(t, "c0", nil)
	f0, err := c0.Create("/n", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.Close(); err != nil {
		t.Fatal(err)
	}
	commitAt(t, c0, "/n", []byte("v2"))
	cl := mc.client(t, "c1", func(cfg *Config) { cfg.Retry.MaxAttempts = 1 })
	ep := &failingCompletes{Endpoint: cl.ep}
	cl.ep = ep
	f, err := cl.OpenWrite("/n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("lost"), 0); err != nil {
		t.Fatal(err)
	}
	ep.on.Store(true)
	if err := f.Close(); err == nil {
		t.Fatal("Close succeeded although the namespace never recorded the commit")
	}
	ep.on.Store(false)
	if got, ver := readAll(t, c0, "/n"); got != "v2" || ver != 2 {
		t.Fatalf("after the unrecorded commit: %q at v%d, want \"v2\" at v2", got, ver)
	}
	for _, cl := range []*Client{cl, c0} {
		commitAt(t, cl, "/n", []byte("kept-"+cl.name))
		if got, _ := readAll(t, c0, "/n"); got != "kept-"+cl.name {
			t.Fatalf("after %s's commit: read %q", cl.name, got)
		}
	}
}

// TestReadAfterManyLostNamespaceRecords: five sessions in a row commit the
// index on its provider while the namespace records none of them, so the
// provider runs five versions past the v2 the namespace still names. Every
// one of those plans was based on v2, so the provider keeps it: readers
// still get "v2" at v2, and a later commit is read back.
func TestReadAfterManyLostNamespaceRecords(t *testing.T) {
	mc := newMiniCluster(t, 3)
	c0 := mc.client(t, "c0", nil)
	f0, err := c0.Create("/m", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.Close(); err != nil {
		t.Fatal(err)
	}
	commitAt(t, c0, "/m", []byte("v2"))
	cl := mc.client(t, "c1", func(cfg *Config) { cfg.Retry.MaxAttempts = 1 })
	ep := &failingCompletes{Endpoint: cl.ep}
	cl.ep = ep
	ep.on.Store(true)
	for i := range 5 {
		f, err := cl.OpenWrite("/m")
		if err != nil {
			t.Fatalf("open for lost round %d: %v", i, err)
		}
		if _, err := f.WriteAt([]byte("lost"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err == nil {
			t.Fatalf("round %d: Close succeeded although the namespace never recorded the commit", i)
		}
	}
	ep.on.Store(false)
	if got, ver := readAll(t, c0, "/m"); got != "v2" || ver != 2 {
		t.Fatalf("after five unrecorded commits: %q at v%d, want \"v2\" at v2", got, ver)
	}
	commitAt(t, cl, "/m", []byte("kept"))
	if got, _ := readAll(t, c0, "/m"); got != "kept" {
		t.Fatalf("after a recorded commit: read %q, want \"kept\"", got)
	}
}
