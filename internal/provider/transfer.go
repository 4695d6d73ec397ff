package provider

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/wire"
)

// Every byte a provider moves in the background goes through this file. The
// paper has one way to make a replica — a site is told to pull the latest
// version from an owner (§3.6) — and defines migration as "replicate
// elsewhere, then erase local" (§3.7.1). So there is one sink (pull), one
// question to the home host (ownersOf), one destination choice (chooseDest),
// one replicate-then-erase (handOff), one location announcement (announce,
// refresh), one stale-replica fan-out (notifyStale) and one counter family
// (count). Lazy sync, repair, scrub repair, the three migration triggers and
// drain differ only in who decides and in the reason they count under;
// DESIGN.md §5 item 9 has the table.

// The reason label of sorrento_transfer_total.
const (
	reasonSync      = "sync"      // a stale replica catches up (SyncNotify)
	reasonReplicate = "replicate" // a new replica site (ReplicateNotify)
	reasonScrub     = "scrub"     // the scrubber dropped the latest version
	reasonIOLoad    = "migrate-ioload"
	reasonSpace     = "migrate-space"
	reasonLocality  = "migrate-locality"
	reasonDrain     = "drain"
)

const (
	// maxPullAttempts bounds how many times a pull is retried across
	// alternate sources before the segment is left to the next repair scan.
	maxPullAttempts = 3
	// maxPulls caps concurrent pulls on a node so background synchronization
	// cannot starve foreground traffic (the paper limits migration to one
	// active process per node for the same reason).
	maxPulls = 2
	// loadEWMAAlpha smooths the utilization samples gossiped in heartbeats.
	loadEWMAAlpha = 0.3
)

// count records one transfer event: outcome is delta, full, retry, reject or
// fail on the pulling side and handoff or fail on a source that erases.
func (p *Provider) count(reason, outcome string, bytes int64) {
	reg, node, why := p.cfg.Obs.Reg(), obs.L("node", string(p.id)), obs.L("reason", reason)
	reg.Counter("sorrento_transfer_total", node, why, obs.L("outcome", outcome)).Inc()
	if bytes > 0 {
		reg.Counter("sorrento_transfer_bytes_total", node, why).Add(bytes)
	}
}

// transfer asks this node to hold seg at version want or later.
type transfer struct {
	seg       ids.SegID
	want      uint64
	source    wire.NodeID // tried first; the other live owners this node knows of follow
	replDeg   int         // policies for a new replica; zero keeps the local or the sender's
	locThresh float64
	handoff   bool // the requester erases its own copy on OK
	reason    string
}

// pull is the only way bytes enter the store in the background: delta sync
// when a local base exists (paper §3.6: replicas "retrieve the updates"),
// the whole version otherwise. Concurrent pulls of one segment coalesce —
// repair scans re-notify long before a big transfer finishes, and duplicate
// fetches would melt the links. A failed attempt is retried with backoff,
// rotating across the sources, so an owner that crashed between notify and
// fetch does not wedge recovery.
func (p *Provider) pull(t transfer) wire.GenericResp {
	if st := p.store.Stat(t.seg); st.Present && st.Version >= t.want {
		// Already current, yet someone thinks otherwise: our last announcement
		// was lost (e.g. to a partition). Re-announce, or the home host
		// re-notifies every repair scan until the next full refresh.
		p.announce(t.seg, false, true)
		return genResp(p.handoffCheck(t))
	}
	p.mu.Lock()
	busy := p.pulling[t.seg]
	p.pulling[t.seg] = true
	p.mu.Unlock()
	if busy {
		if t.handoff {
			return wire.GenericResp{Err: "handoff: another transfer of the segment is in flight"}
		}
		return wire.GenericResp{OK: true}
	}
	defer func() {
		p.mu.Lock()
		delete(p.pulling, t.seg)
		p.mu.Unlock()
	}()
	p.pullSem <- struct{}{}
	defer func() { <-p.pullSem }()

	sources := []wire.NodeID{t.source}
	for _, o := range p.table.Owners(t.seg) {
		if o.Node != t.source && o.Node != p.id && p.members.IsLive(o.Node) {
			sources = append(sources, o.Node)
		}
	}
	for attempt := 0; ; attempt++ {
		err := p.pullFrom(t, sources[attempt%len(sources)])
		if err == nil {
			return genResp(p.handoffCheck(t))
		}
		if attempt+1 == maxPullAttempts || !p.backoff(attempt) {
			p.count(t.reason, "fail", 0)
			return genResp(err)
		}
		p.count(t.reason, "retry", 0)
	}
}

// handoffCheck is the hand-off rule: an OK to a transfer with handoff set
// licenses the requester to erase its copy, so it is given only after this
// call saw the wanted version in the store and read it back clean from the
// media. A lying write fails it, the source keeps the segment and tries again
// later; the corrupt install is dropped on the spot, not left to the scrubber.
func (p *Provider) handoffCheck(t transfer) error {
	if !t.handoff {
		return nil
	}
	if st := p.store.Stat(t.seg); !st.Present || st.Version < t.want {
		return errors.New("handoff: replica not yet installed")
	}
	if !p.store.VerifyVersion(t.seg, 0) {
		p.store.ScrubSegment(t.seg)
		return errors.New("handoff: installed bytes failed verification")
	}
	return nil
}

// backoff sleeps an exponentially growing, seeded-jittered modeled delay
// between pull attempts. It returns false when the provider is stopping.
func (p *Provider) backoff(attempt int) bool {
	base := 250 * time.Millisecond << uint(attempt)
	p.mu.Lock()
	d := base/2 + time.Duration(p.rng.Int63n(int64(base)))
	p.mu.Unlock()
	select {
	case <-p.stop:
		return false
	case <-p.clock.After(d):
		return true
	}
}

// pullFrom is one attempt against one source, ending at the one point where
// pulled bytes are accepted into the store. It asks once, for the changes
// since the local version (the source answers with the whole version when
// it no longer has them), and asks again for the whole version only when
// the changes do not apply to the local copy.
func (p *Provider) pullFrom(t transfer, source wire.NodeID) error {
	base := p.store.Stat(t.seg).Version
	for {
		resp, err := p.call(source, wire.SegFetch{Seg: t.seg, HaveVer: base})
		if err != nil {
			return err
		}
		d, ok := resp.(wire.SegFetchResp)
		if !ok || !d.OK {
			// A redirect is not data: only an OK answer is ever installed.
			return fmt.Errorf("fetch from %s failed: %s", source, d.Err)
		}
		if d.Version <= base {
			return nil // the source is no further than we are
		}
		// The accept point. Verify-on-replicate: bytes that fail the sender's
		// commit-time sums are never installed — corruption must not propagate
		// — and the failed attempt rotates to another source. ApplyDelta makes
		// the same check on the buffer it reconstructs. Both keep the sums
		// they checked against. (The still-wanted check of "deletes that
		// stick" belongs here: one `if` before the install.)
		outcome, moved := "delta", int64(0)
		if !d.Delta {
			outcome, moved = "full", int64(len(d.Data))
			if !verifyPayload(d.Data, d.Sums) {
				p.count(t.reason, "reject", 0)
				return errors.New("pull: payload failed checksum")
			}
			if err := p.store.Install(t.seg, d.Version, d.Data, d.Sums, orDefault(t.replDeg, d.ReplDeg), orDefault(t.locThresh, d.LocalityThreshold)); err != nil {
				return err
			}
		} else {
			for _, r := range d.Ranges {
				moved += int64(len(r.Data))
			}
			if p.store.ApplyDelta(t.seg, base, d.Version, d.Ranges, d.Size, t.replDeg, t.locThresh, d.Sums) != nil {
				base = 0 // the local base moved or is rotten: take the whole version
				continue
			}
		}
		p.count(t.reason, outcome, moved)
		// Announce and wait: a source that erases on our OK must not do so
		// while the location table does not know this copy yet.
		p.announce(t.seg, false, true)
		return nil
	}
}

// verifyPayload checks a fetched payload against the sender's commit-time
// sums. Nil sums means the payload carries no integrity metadata (direct
// segments, which replication skips anyway) and is accepted as-is.
func verifyPayload(data []byte, sums []uint32) bool {
	return sums == nil || wire.VerifySums(data, sums) < 0
}

func orDefault[T int | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// ownersOf asks seg's home host who holds it: the location table when that
// is this node, one LocQuery otherwise.
func (p *Provider) ownersOf(seg ids.SegID) []wire.OwnerInfo {
	home := p.homeOf(seg)
	if home == p.id {
		return p.table.Owners(seg)
	}
	if home != "" {
		if resp, err := p.call(home, wire.LocQuery{Seg: seg}); err == nil {
			q, _ := resp.(wire.LocQueryResp)
			return q.Owners
		}
	}
	return nil
}

// chooseDest picks the site for one more copy of a segment of the given size
// that holders already hold: none of them is eligible, and when rack labels
// are gossiped neither is any node on their racks, unless that leaves nobody
// (rack-aware placement, §3.7.2). With moving set the copy is this node's
// own, on its way out: this node is not a site, and its rack — about to lose
// the copy — stays eligible, so migration and drain keep the spread repair
// established.
func (p *Provider) chooseDest(size int64, alpha float64, holders []wire.OwnerInfo, moving bool) (wire.NodeID, error) {
	loads := p.members.Loads()
	racks := make(map[wire.NodeID]string, len(loads))
	for node, l := range loads {
		if l.Rack != "" {
			racks[node] = l.Rack
		}
	}
	exclude := map[wire.NodeID]bool{p.id: moving}
	excludeRacks := make(map[string]bool)
	for _, h := range holders {
		exclude[h.Node] = true
		if r := racks[h.Node]; r != "" && !(moving && h.Node == p.id) {
			excludeRacks[r] = true
		}
	}
	return p.selector.Choose(placement.FromLoads(loads), placement.Options{
		Alpha: alpha, SegSize: size, Exclude: exclude, Racks: racks, ExcludeRacks: excludeRacks,
	})
}

// handOff moves one segment to dest: dest pulls a replica, then the local
// copy is erased (migration = replicate elsewhere + erase local, §3.7.1).
// Segments with open shadows are never moved, and the erase is skipped if the
// version advanced while dest was pulling — deleting then would destroy a
// newer committed version dest never received.
func (p *Provider) handOff(seg ids.SegID, dest wire.NodeID, reason string) error {
	st := p.store.Stat(seg)
	switch {
	case !st.Present:
		return fmt.Errorf("provider %s: hand off %s: not present", p.id, seg.Short())
	case st.HasShadow:
		return fmt.Errorf("provider %s: hand off %s: write session open", p.id, seg.Short())
	case dest == p.id:
		return fmt.Errorf("provider %s: hand off %s to self", p.id, seg.Short())
	}
	resp, err := p.call(dest, wire.ReplicateNotify{
		Seg: seg, Version: st.Version, Source: p.id,
		ReplDeg: st.ReplDeg, LocalityThreshold: p.store.LocalityThreshold(seg),
		Handoff: true, // see handoffCheck
	})
	if g, ok := resp.(wire.GenericResp); err == nil && (!ok || !g.OK) {
		err = fmt.Errorf("provider %s: hand off %s to %s: %s", p.id, seg.Short(), dest, g.Err)
	}
	if after := p.store.Stat(seg); err == nil && (after.Version != st.Version || after.HasShadow) {
		err = fmt.Errorf("provider %s: hand off %s: version advanced during transfer", p.id, seg.Short())
	}
	if err == nil {
		err = p.store.Delete(seg)
	}
	if err != nil {
		p.count(reason, "fail", 0)
		return err
	}
	p.announce(seg, true, false)
	p.count(reason, "handoff", st.Size)
	return nil
}

// announce tells seg's home host what this node now holds of it, or with
// removed that it holds it no longer (paper §3.4.1 event 4). With wait the
// home host has recorded it when announce returns; without, the update is
// sent from a goroutine Stop waits for.
func (p *Provider) announce(seg ids.SegID, removed, wait bool) {
	home := p.homeOf(seg)
	if home == "" {
		return
	}
	st := p.store.Stat(seg)
	e := wire.LocEntry{
		Seg:               seg,
		Version:           st.Version,
		Size:              st.Size,
		ReplDeg:           st.ReplDeg,
		LocalityThreshold: p.store.LocalityThreshold(seg),
	}
	p.mu.Lock()
	if removed {
		delete(p.lastHome, seg)
	} else {
		p.lastHome[seg] = home
	}
	p.mu.Unlock()
	if home == p.id {
		p.recordUpdate(p.id, e, removed)
		return
	}
	send := func() { p.call(home, wire.LocUpdate{From: p.id, Entry: e, Removed: removed}) }
	if wait {
		send()
	} else {
		p.spawn(send)
	}
}

// recordUpdate is the home host's side of announce. A version advance starts
// update propagation to the stale replicas right away (Figure 6 steps 10–12);
// the periodic repair scan remains the backstop.
func (p *Provider) recordUpdate(from wire.NodeID, e wire.LocEntry, removed bool) {
	p.table.Update(from, e, removed)
	if removed {
		return
	}
	if act, ok := p.table.ScanSeg(e.Seg, p.members.IsLive); ok {
		p.notifyStale(act, len(act.Stale))
	}
}

// notifyStale tells up to budget of a segment's stale owners to pull the
// latest version, and returns how many it told.
func (p *Provider) notifyStale(act locate.SyncAction, budget int) int {
	stale := act.Stale[:min(budget, len(act.Stale))]
	for _, node := range stale {
		p.spawn(func() {
			p.call(node, wire.SyncNotify{Seg: act.Seg, Version: act.Latest, Source: act.Source})
		})
	}
	return len(stale)
}

// refresh re-registers local segments with their home hosts, one LocRefresh
// per home host: the segments homed at to, or at any node when to is empty;
// with changedOnly only those whose home host is not the one they were last
// registered with (a join or a departure moved it).
func (p *Provider) refresh(to wire.NodeID, changedOnly bool) {
	byHome := locate.GroupByHome(p.store.List(), p.homeOf)
	p.mu.Lock()
	for home, list := range byHome {
		send := list[:0]
		for _, e := range list {
			if (to == "" || to == home) && !(changedOnly && p.lastHome[e.Seg] == home) {
				p.lastHome[e.Seg] = home
				send = append(send, e)
			}
		}
		byHome[home] = send
	}
	p.mu.Unlock()
	for home, list := range byHome {
		switch {
		case len(list) == 0:
		case home == p.id:
			p.table.Refresh(p.id, list)
		default:
			p.spawn(func() { p.call(home, wire.LocRefresh{From: p.id, Entries: list}) })
		}
	}
}
