// Package locate implements a provider's location table (paper §3.4): the
// soft-state map from SegIDs to their owners that the segment's home host
// maintains. Owners push entries via periodic content refreshing and
// event-driven updates; entries age out when no longer refreshed (garbage
// after a home-host change). The table also surfaces the version
// discrepancies and replication deficits that drive lazy replica
// synchronization and repair (§3.6).
package locate

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/simtime"
	"repro/internal/wire"
)

type ownerRec struct {
	version     uint64
	size        int64
	lastRefresh time.Duration // modeled time
}

type segRec struct {
	owners            map[wire.NodeID]*ownerRec
	replDeg           int
	localityThreshold float64
}

// Table is the location table of one home host.
type Table struct {
	clock *simtime.Clock

	mu   sync.Mutex
	segs map[ids.SegID]*segRec
}

// NewTable returns an empty location table.
func NewTable(clock *simtime.Clock) *Table {
	return &Table{clock: clock, segs: make(map[ids.SegID]*segRec)}
}

// Update applies a single-segment fast-path update (creation, deletion,
// version advance; paper §3.4.1 event 4). Owners announce each commit in
// its own goroutine, so two quick commits can arrive out of order: an update
// never lowers an owner's version.
func (t *Table) Update(from wire.NodeID, e wire.LocEntry, removed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if removed {
		if rec, ok := t.segs[e.Seg]; ok {
			delete(rec.owners, from)
			if len(rec.owners) == 0 {
				delete(t.segs, e.Seg)
			}
		}
		return
	}
	t.insertLocked(from, e, true)
}

// Refresh applies a batch content refresh from one owner (event 1). A
// refresh is the owner's whole state and may report less than the table
// holds: a restart drops torn commits.
func (t *Table) Refresh(from wire.NodeID, entries []wire.LocEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		t.insertLocked(from, e, false)
	}
}

func (t *Table) insertLocked(from wire.NodeID, e wire.LocEntry, keepHigher bool) {
	rec, ok := t.segs[e.Seg]
	if !ok {
		rec = &segRec{owners: make(map[wire.NodeID]*ownerRec)}
		t.segs[e.Seg] = rec
	}
	if e.ReplDeg > 0 {
		rec.replDeg = e.ReplDeg
	}
	if e.LocalityThreshold > 0 {
		rec.localityThreshold = e.LocalityThreshold
	}
	o, ok := rec.owners[from]
	if !ok {
		o = &ownerRec{}
		rec.owners[from] = o
	}
	if !keepHigher || e.Version >= o.version {
		o.version = e.Version
		o.size = e.Size
	}
	o.lastRefresh = t.clock.Now()
}

// Owners returns the known owners of a segment, newest version first
// (ties broken by node name for determinism).
func (t *Table) Owners(seg ids.SegID) []wire.OwnerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.segs[seg]
	if !ok {
		return nil
	}
	out := make([]wire.OwnerInfo, 0, len(rec.owners))
	for n, o := range rec.owners {
		out = append(out, wire.OwnerInfo{Node: n, Version: o.version})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Version != out[j].Version {
			return out[i].Version > out[j].Version
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// RemoveOwner drops every entry contributed by a departed node (event 3)
// and returns the segments that lost an owner.
func (t *Table) RemoveOwner(node wire.NodeID) []ids.SegID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var affected []ids.SegID
	for seg, rec := range t.segs {
		if _, ok := rec.owners[node]; ok {
			delete(rec.owners, node)
			affected = append(affected, seg)
			if len(rec.owners) == 0 {
				delete(t.segs, seg)
			}
		}
	}
	return affected
}

// PurgeGarbage evicts owner entries not refreshed within maxAge — the aging
// scheme that reclaims entries this node is no longer the home host for.
// It returns how many owner entries were purged.
func (t *Table) PurgeGarbage(maxAge time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	cutoff := t.clock.Now() - maxAge
	n := 0
	for seg, rec := range t.segs {
		for node, o := range rec.owners {
			if o.lastRefresh < cutoff {
				delete(rec.owners, node)
				n++
			}
		}
		if len(rec.owners) == 0 {
			delete(t.segs, seg)
		}
	}
	return n
}

// SyncAction describes replica maintenance the home host should trigger.
type SyncAction struct {
	Seg               ids.SegID
	Latest            uint64
	Source            wire.NodeID   // an owner holding the latest version
	Stale             []wire.NodeID // owners behind Latest → send SyncNotify
	Deficit           int           // missing replicas → choose new sites
	CurrentOwners     []wire.NodeID // all owners (exclusion set for placement)
	Size              int64
	ReplDeg           int
	LocalityThreshold float64
}

// Scan inspects every tracked segment and reports the sync/repair work:
// owners with stale versions and segments below their replication degree
// (paper §3.6). liveFn filters owners to currently-live nodes so repair
// does not count dead replicas.
func (t *Table) Scan(liveFn func(wire.NodeID) bool) []SyncAction {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SyncAction
	for seg, rec := range t.segs {
		if act, ok := scanRec(seg, rec, liveFn); ok {
			out = append(out, act)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seg.Less(out[j].Seg) })
	return out
}

// ScanSeg evaluates one segment's sync/repair needs — the fast path run
// right after a location update so replica propagation starts immediately
// (Figure 6 steps 10–12) rather than waiting for the periodic scan.
func (t *Table) ScanSeg(seg ids.SegID, liveFn func(wire.NodeID) bool) (SyncAction, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.segs[seg]
	if !ok {
		return SyncAction{}, false
	}
	return scanRec(seg, rec, liveFn)
}

func scanRec(seg ids.SegID, rec *segRec, liveFn func(wire.NodeID) bool) (SyncAction, bool) {
	var latest uint64
	for node, o := range rec.owners {
		if liveFn != nil && !liveFn(node) {
			continue
		}
		if o.version > latest {
			latest = o.version
		}
	}
	if latest == 0 {
		return SyncAction{}, false
	}
	act := SyncAction{Seg: seg, Latest: latest, ReplDeg: rec.replDeg, LocalityThreshold: rec.localityThreshold}
	liveOwners := 0
	for node, o := range rec.owners {
		if liveFn != nil && !liveFn(node) {
			continue
		}
		liveOwners++
		act.CurrentOwners = append(act.CurrentOwners, node)
		if o.version == latest {
			if act.Source == "" || node < act.Source {
				act.Source = node
				act.Size = o.size
			}
		} else {
			act.Stale = append(act.Stale, node)
		}
	}
	sort.Slice(act.CurrentOwners, func(i, j int) bool { return act.CurrentOwners[i] < act.CurrentOwners[j] })
	sort.Slice(act.Stale, func(i, j int) bool { return act.Stale[i] < act.Stale[j] })
	upToDate := liveOwners - len(act.Stale)
	if rec.replDeg > upToDate {
		act.Deficit = rec.replDeg - upToDate
	}
	return act, len(act.Stale) > 0 || act.Deficit > 0
}

// Len returns the number of tracked segments.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segs)
}

// GroupByHome buckets entries by their home host, for building the periodic
// refresh batches an owner sends (complexity proportional to the list size,
// as the paper requires).
func GroupByHome(entries []wire.LocEntry, homeOf func(ids.SegID) wire.NodeID) map[wire.NodeID][]wire.LocEntry {
	out := make(map[wire.NodeID][]wire.LocEntry)
	for _, e := range entries {
		h := homeOf(e.Seg)
		if h == "" {
			continue
		}
		out[h] = append(out[h], e)
	}
	return out
}
