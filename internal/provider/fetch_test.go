package provider

// White-box tests of the two requests a round-budget session leans on. The
// home-first SegFetch: the answer of a node that does not hold the version is
// a redirect, and a redirect must never look like data — pullFrom installs
// whatever an OK response carries. And the folded index prepare.

import (
	"context"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/wire"
)

func fetchTestProvider(t *testing.T, clock *simtime.Clock, fabric *simnet.Fabric, id wire.NodeID) *Provider {
	t.Helper()
	p, err := New(id, clock, Config{Seed: 1}, fabric, disk.New(clock, string(id), disk.SCSI10K(), 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	return p
}

func fetch(t *testing.T, p *Provider, m wire.SegFetch) wire.SegFetchResp {
	t.Helper()
	resp, err := (*handler)(p).HandleCall(context.Background(), "client", m)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(wire.SegFetchResp)
}

// wantRedirect checks r is a refusal carrying exactly the owner "src" and
// nothing a puller could install.
func wantRedirect(t *testing.T, what string, r wire.SegFetchResp) {
	t.Helper()
	if r.OK || r.Err == "" {
		t.Errorf("%s: OK=%v Err=%q, want a refusal", what, r.OK, r.Err)
	}
	if len(r.Data) != 0 || r.Version != 0 || r.Sums != nil {
		t.Errorf("%s: redirect carries payload fields: v%d, %d bytes, sums %v", what, r.Version, len(r.Data), r.Sums)
	}
	if len(r.Owners) != 1 || r.Owners[0] != (wire.OwnerInfo{Node: "src", Version: 2}) {
		t.Errorf("%s: owners %v, want [src v2]", what, r.Owners)
	}
}

func TestFetchRedirectNeverLooksLikeData(t *testing.T) {
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	home := fetchTestProvider(t, clock, fabric, "home")
	src := fetchTestProvider(t, clock, fabric, "src")
	puller := fetchTestProvider(t, clock, fabric, "puller")

	seg := ids.New()
	current := []byte("index, version two")
	if err := src.store.Install(seg, 2, current, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	entry := wire.LocEntry{Seg: seg, Version: 2, Size: int64(len(current)), ReplDeg: 1}
	home.table.Update("src", entry, false)

	// The home host does not hold the segment at all.
	wantRedirect(t, "home without the segment", fetch(t, home, wire.SegFetch{Seg: seg, Version: 2}))
	wantRedirect(t, "home without the segment, latest asked", fetch(t, home, wire.SegFetch{Seg: seg}))

	// A puller pointed at it installs nothing from the redirect and gets the
	// bytes from the next source it knows.
	if err := puller.pullFrom(transfer{seg: seg, want: 2, reason: reasonReplicate}, "home"); err == nil {
		t.Error("pullFrom accepted a redirect as a completed pull")
	}
	if puller.store.Stat(seg).Present {
		t.Fatal("pullFrom installed something out of a redirect")
	}
	puller.table.Update("src", entry, false)
	puller.members.ObserveHeartbeat(wire.Heartbeat{From: "src", Seq: 1})
	if g := puller.pull(transfer{seg: seg, want: 2, source: "home", replDeg: 1, reason: reasonReplicate}); !g.OK {
		t.Fatalf("pull did not fail over to the next source: %s", g.Err)
	}
	if got, ver, err := puller.store.Read(seg, 0, 0, 100); err != nil || ver != 2 || string(got) != string(current) {
		t.Fatalf("after failover the puller holds %q v%d (err %v), want %q v2", got, ver, err, current)
	}

	// The home host holds only an older version than the one asked for.
	if err := home.store.Install(seg, 1, []byte("index, version one"), nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	wantRedirect(t, "home one version behind", fetch(t, home, wire.SegFetch{Seg: seg, Version: 2}))

	// A home host that holds the version serves it with the owners it knows,
	// itself included.
	if err := home.store.Install(seg, 2, current, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	r := fetch(t, home, wire.SegFetch{Seg: seg, Version: 2})
	if !r.OK || string(r.Data) != string(current) || r.Version != 2 {
		t.Fatalf("home holding v2 answered OK=%v v%d %q (%s)", r.OK, r.Version, r.Data, r.Err)
	}
	nodes := map[wire.NodeID]uint64{}
	for _, o := range r.Owners {
		nodes[o.Node] = o.Version
	}
	if len(r.Owners) != 2 || nodes["home"] != 2 || nodes["src"] != 2 {
		t.Errorf("served with owners %v, want home and src at v2", r.Owners)
	}

	// Rot on the home host's copy is caught before it serves: the answer
	// turns back into a redirect and the detection is counted.
	if !home.store.Corrupt(seg) {
		t.Fatal("could not corrupt the home host's copy")
	}
	before := home.store.IntegrityStats().Detected
	wantRedirect(t, "home with a rotten copy", fetch(t, home, wire.SegFetch{Seg: seg, Version: 2}))
	if got := home.store.IntegrityStats().Detected; got != before+1 {
		t.Errorf("detections %d → %d, want the refused fetch counted once", before, got)
	}
}

// TestFoldedIndexPrepareIsAPrepare: SegShadow with Prepare set is phase one
// for the provider's books too — same counter and latency histogram as
// Prepare2PC — and Commit2PC / Abort2PC finish what it started.
func TestFoldedIndexPrepareIsAPrepare(t *testing.T) {
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	p, err := New("p0", clock, Config{Seed: 1, Obs: obs.New(clock)}, fabric, disk.New(clock, "p0", disk.SCSI10K(), 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	h := (*handler)(p)
	call := func(req any) any {
		t.Helper()
		resp, err := h.HandleCall(context.Background(), "client", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	seg := ids.New()
	fold := wire.SegShadow{Owner: "s", Seg: seg, TTLSec: 60, ReplDeg: 1, Prepare: true, Data: []byte("index v1")}
	for i := 0; i < 2; i++ { // the second is a resend after a lost reply
		r := call(fold).(wire.SegShadowResp)
		if !r.OK || r.NewVer != 1 || r.Size != int64(len(fold.Data)) {
			t.Fatalf("fold %d: %+v", i, r)
		}
	}
	if n, lat := p.pm.prepare2PC.Value(), p.pm.prepareLat.Count(); n != 2 || lat != 2 {
		t.Errorf("prepare counter %d, latency samples %d after two folded requests, want 2 and 2", n, lat)
	}
	if g := call(wire.Commit2PC{Owner: "s", Segs: []ids.SegID{seg}, Planned: []uint64{1}}).(wire.GenericResp); !g.OK {
		t.Fatalf("commit after fold: %s", g.Err)
	}
	if got, ver, err := p.store.Read(seg, 0, 0, 100); err != nil || ver != 1 || string(got) != "index v1" {
		t.Fatalf("published %q v%d (err %v)", got, ver, err)
	}

	// A second round is abandoned: the abort frees the slot for another session.
	fold.Data = []byte("index v2, abandoned")
	if r := call(fold).(wire.SegShadowResp); !r.OK || r.NewVer != 2 {
		t.Fatalf("second fold: %+v", r)
	}
	other := wire.SegShadow{Owner: "t", Seg: seg, TTLSec: 60, ReplDeg: 1, Prepare: true, Data: []byte("index v2")}
	if r := call(other).(wire.SegShadowResp); r.OK {
		t.Fatal("another session prepared over a held commit slot")
	}
	call(wire.Abort2PC{Owner: "s", Segs: []ids.SegID{seg}})
	if r := call(other).(wire.SegShadowResp); !r.OK || r.NewVer != 2 {
		t.Fatalf("fold after abort: %+v", r)
	}
}
