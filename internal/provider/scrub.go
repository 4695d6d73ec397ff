package provider

import (
	"bytes"
	"sort"

	"repro/internal/ids"
)

// Background scrub-and-repair: the provider walks its committed segments at
// a paced rate (each scan is charged to the disk arm by the store, so scrub
// competes with foreground I/O the way a real scrubber does), verifying
// stored bytes against their commit-time checksums. A version that fails is
// dropped and the latest is re-pulled from a healthy replica through the
// ordinary replicate path — which itself verifies on receive, so repair can
// never launder corruption back in. A provider whose cumulative detections
// cross QuarantineThreshold concludes its media is failing and
// self-quarantines by entering the admin drain state: it keeps serving
// (verified) reads while the cluster stops placing new data on it and its
// segments evacuate.

// scrubTick verifies the next ScrubBatch segments past the scrub cursor
// (sorted segment-ID order, wrapping) and repairs whatever it dropped.
func (p *Provider) scrubTick() {
	segs := p.store.Segments()
	if len(segs) > 0 {
		sort.Slice(segs, func(i, j int) bool {
			return bytes.Compare(segs[i][:], segs[j][:]) < 0
		})
		batch := p.cfg.ScrubBatch
		if batch > len(segs) {
			batch = len(segs)
		}
		p.mu.Lock()
		cur := p.scrubCursor
		p.mu.Unlock()
		start := sort.Search(len(segs), func(i int) bool {
			return bytes.Compare(segs[i][:], cur[:]) > 0
		})
		t0 := p.clock.Now()
		var scanned int64
		for i := 0; i < batch; i++ {
			select {
			case <-p.stop:
				return
			default:
			}
			scanned += p.scrubOne(segs[(start+i)%len(segs)])
		}
		// One mostly-sequential media scan per batch: charging the arm per
		// segment would bill a random seek each and saturate the disk on
		// small-segment stores.
		if scanned > 0 {
			p.store.Disk().Read(scanned)
		}
		p.mu.Lock()
		p.scrubCursor = segs[(start+batch-1)%len(segs)]
		p.mu.Unlock()
		p.pm.scrubLat.ObserveDuration(p.clock.Now() - t0)
	}
	p.maybeQuarantine()
}

// scrubOne verifies one segment and, when the latest committed version was
// dropped as corrupt, re-pulls it from a healthy replica. It returns the
// bytes scanned so the tick can charge the disk arm once per batch.
func (p *Provider) scrubOne(seg ids.SegID) int64 {
	scanned, dropped, intact := p.store.ScrubSegment(seg)
	if dropped == 0 || intact {
		// Clean, or only a superseded old version was corrupt — the latest
		// still serves, nothing to repair.
		return scanned
	}
	p.repairScrubbed(seg)
	return scanned
}

// repairScrubbed restores a segment whose latest version the scrubber
// dropped: ask the home host who else owns it and pull from the newest live
// replica. When no healthy replica is known the periodic repair scan remains
// the backstop (the home host sees our stale/missing registration).
func (p *Provider) repairScrubbed(seg ids.SegID) {
	t := transfer{seg: seg, reason: reasonScrub}
	for _, o := range p.ownersOf(seg) {
		if o.Node != p.id && o.Node != "" && p.members.IsLive(o.Node) && o.Version >= t.want {
			t.source, t.want = o.Node, o.Version
		}
	}
	if t.source != "" {
		p.pull(t)
	}
}

// maybeQuarantine enters the draining state once cumulative corruption
// detections cross the configured threshold. It fires at most once per
// daemon lifetime; an operator who aborts the drain keeps the node serving
// until a restart resets the latch.
func (p *Provider) maybeQuarantine() {
	thr := p.cfg.QuarantineThreshold
	if thr <= 0 {
		return
	}
	if p.store.IntegrityStats().Detected < int64(thr) {
		return
	}
	p.mu.Lock()
	if p.quarantined {
		p.mu.Unlock()
		return
	}
	p.quarantined = true
	p.mu.Unlock()
	p.pm.quarantines.Inc()
	p.Drain(false)
}

// Quarantined reports whether the corruption threshold ever tripped.
func (p *Provider) Quarantined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantined
}
