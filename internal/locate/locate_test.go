package locate

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simtime"
	"repro/internal/wire"
)

func newTable() (*Table, *simtime.Clock) {
	clock := simtime.NewClock(0.0001)
	return NewTable(clock), clock
}

func entry(seg ids.SegID, ver uint64, repl int) wire.LocEntry {
	return wire.LocEntry{Seg: seg, Version: ver, Size: 100, ReplDeg: repl}
}

func TestUpdateAndOwners(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 1, 2), false)
	tbl.Update("p2", entry(seg, 2, 2), false)
	owners := tbl.Owners(seg)
	if len(owners) != 2 {
		t.Fatalf("owners = %v", owners)
	}
	if owners[0].Node != "p2" || owners[0].Version != 2 {
		t.Errorf("newest-first ordering broken: %v", owners)
	}
}

func TestUpdateRemove(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 1, 1), false)
	tbl.Update("p1", entry(seg, 1, 1), true)
	if got := tbl.Owners(seg); got != nil {
		t.Errorf("owners after removal = %v", got)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestRefreshBatch(t *testing.T) {
	tbl, _ := newTable()
	a, b := ids.New(), ids.New()
	tbl.Refresh("p1", []wire.LocEntry{entry(a, 1, 1), entry(b, 3, 2)})
	if len(tbl.Owners(a)) != 1 || len(tbl.Owners(b)) != 1 {
		t.Error("refresh did not install entries")
	}
	if tbl.Owners(b)[0].Version != 3 {
		t.Error("version lost in refresh")
	}
}

func TestRemoveOwner(t *testing.T) {
	tbl, _ := newTable()
	a, b := ids.New(), ids.New()
	tbl.Update("p1", entry(a, 1, 2), false)
	tbl.Update("p2", entry(a, 1, 2), false)
	tbl.Update("p1", entry(b, 1, 1), false)
	affected := tbl.RemoveOwner("p1")
	if len(affected) != 2 {
		t.Fatalf("affected = %v", affected)
	}
	if len(tbl.Owners(a)) != 1 || tbl.Owners(a)[0].Node != "p2" {
		t.Errorf("a owners = %v", tbl.Owners(a))
	}
	if tbl.Owners(b) != nil {
		t.Errorf("b owners = %v", tbl.Owners(b))
	}
}

func TestPurgeGarbage(t *testing.T) {
	tbl, clock := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 1, 1), false)
	clock.Sleep(10 * time.Second)
	tbl.Update("p2", entry(seg, 1, 1), false)
	if n := tbl.PurgeGarbage(5 * time.Second); n != 1 {
		t.Fatalf("purged %d, want 1 (p1 stale)", n)
	}
	owners := tbl.Owners(seg)
	if len(owners) != 1 || owners[0].Node != "p2" {
		t.Errorf("owners after purge = %v", owners)
	}
}

func TestScanDetectsStaleReplicas(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 2, 2), false)
	tbl.Update("p2", entry(seg, 1, 2), false)
	acts := tbl.Scan(nil)
	if len(acts) != 1 {
		t.Fatalf("actions = %+v", acts)
	}
	a := acts[0]
	if a.Latest != 2 || a.Source != "p1" || len(a.Stale) != 1 || a.Stale[0] != "p2" {
		t.Errorf("action = %+v", a)
	}
	if a.Deficit != 1 {
		// 2 owners but only 1 up to date: deficit 1 until p2 syncs.
		t.Errorf("deficit = %d, want 1", a.Deficit)
	}
}

func TestScanDetectsUnderReplication(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 1, 3), false)
	acts := tbl.Scan(nil)
	if len(acts) != 1 || acts[0].Deficit != 2 {
		t.Fatalf("actions = %+v", acts)
	}
	if len(acts[0].CurrentOwners) != 1 || acts[0].CurrentOwners[0] != "p1" {
		t.Errorf("owners = %v", acts[0].CurrentOwners)
	}
}

func TestScanHealthySegmentSilent(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 2, 2), false)
	tbl.Update("p2", entry(seg, 2, 2), false)
	if acts := tbl.Scan(nil); len(acts) != 0 {
		t.Errorf("healthy segment produced actions: %+v", acts)
	}
}

func TestScanIgnoresDeadOwners(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 2, 2), false)
	tbl.Update("p2", entry(seg, 2, 2), false)
	live := func(n wire.NodeID) bool { return n != "p2" }
	acts := tbl.Scan(live)
	if len(acts) != 1 || acts[0].Deficit != 1 {
		t.Fatalf("actions with dead p2 = %+v", acts)
	}
}

func TestScanAllOwnersDead(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", entry(seg, 2, 2), false)
	acts := tbl.Scan(func(wire.NodeID) bool { return false })
	if len(acts) != 0 {
		t.Errorf("actions with no live owner = %+v", acts)
	}
}

func TestGroupByHome(t *testing.T) {
	a, b, c := ids.New(), ids.New(), ids.New()
	homes := map[ids.SegID]wire.NodeID{a: "h1", b: "h2", c: "h1"}
	got := GroupByHome(
		[]wire.LocEntry{entry(a, 1, 1), entry(b, 1, 1), entry(c, 1, 1)},
		func(s ids.SegID) wire.NodeID { return homes[s] },
	)
	if len(got["h1"]) != 2 || len(got["h2"]) != 1 {
		t.Errorf("grouping = %v", got)
	}
}

func TestGroupByHomeSkipsUnhomed(t *testing.T) {
	got := GroupByHome([]wire.LocEntry{entry(ids.New(), 1, 1)}, func(ids.SegID) wire.NodeID { return "" })
	if len(got) != 0 {
		t.Errorf("unhomed entries grouped: %v", got)
	}
}

func TestLocalityThresholdPropagates(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	e := entry(seg, 1, 1)
	e.LocalityThreshold = 0.7
	tbl.Update("p1", e, false)
	// Make the record need repair so Scan reports it.
	e2 := entry(seg, 1, 3)
	tbl.Update("p1", e2, false)
	acts := tbl.Scan(nil)
	if len(acts) != 1 || acts[0].LocalityThreshold != 0.7 {
		t.Errorf("threshold lost: %+v", acts)
	}
}

// TestUpdateNeverLowersVersion: an owner announces each commit in its own
// goroutine, so the home host can receive v2's update before v1's. The late
// v1 must not roll the table back, but a refresh — the owner's whole state,
// as after a restart that dropped a torn commit — may report less.
func TestUpdateNeverLowersVersion(t *testing.T) {
	tbl, _ := newTable()
	seg := ids.New()
	tbl.Update("p1", wire.LocEntry{Seg: seg, Version: 2, Size: 200, ReplDeg: 1}, false)
	tbl.Update("p1", wire.LocEntry{Seg: seg, Version: 1, Size: 100, ReplDeg: 1}, false)
	if got := tbl.Owners(seg); len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("owners after v2 then v1 = %v, want p1 at v2", got)
	}
	if act, ok := tbl.ScanSeg(seg, nil); ok || act.Size != 200 {
		t.Errorf("scan after the late update = %+v, %v; want v2's size 200 and nothing to do", act, ok)
	}
	tbl.Refresh("p1", []wire.LocEntry{{Seg: seg, Version: 1, Size: 100, ReplDeg: 1}})
	if got := tbl.Owners(seg); len(got) != 1 || got[0].Version != 1 {
		t.Fatalf("owners after a refresh at v1 = %v, want p1 at v1", got)
	}
}
