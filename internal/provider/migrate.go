package provider

import (
	"time"

	"repro/internal/migration"
)

// MigrationConfig tunes the provider's migration engine (paper §3.7).
type MigrationConfig struct {
	// Enabled turns migration on (Figure 14's Sorrento-space variant runs
	// with it off).
	Enabled bool
	// Interval is the decision cadence (paper: once per minute).
	Interval time.Duration
	// LocalityEnabled turns on locality-driven migration for segments with
	// a locality threshold (paper §3.7.2).
	LocalityEnabled bool
	// MinTraffic is the minimum access-history depth before a locality
	// decision is trusted.
	MinTraffic int
}

// DefaultMigrationConfig matches the paper.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		Enabled:         true,
		Interval:        time.Minute,
		LocalityEnabled: true,
		MinTraffic:      20,
	}
}

func (c MigrationConfig) withDefaults() MigrationConfig {
	def := DefaultMigrationConfig()
	if c.Interval <= 0 {
		c.Interval = def.Interval
	}
	if c.MinTraffic <= 0 {
		c.MinTraffic = def.MinTraffic
	}
	return c
}

// migrationTick runs one migration decision (at most one active migration
// per node, §3.7.1).
func (p *Provider) migrationTick() {
	if !p.cfg.Migration.Enabled && !p.cfg.Migration.LocalityEnabled {
		return
	}
	// A draining node is already moving everything it has; the balance
	// triggers would only fight the drain worker over the same segments.
	if p.draining.Load() {
		return
	}
	p.mu.Lock()
	if p.migrBusy {
		p.mu.Unlock()
		return
	}
	p.migrBusy = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.migrBusy = false
		p.mu.Unlock()
	}()

	if p.cfg.Migration.LocalityEnabled && p.localityMigrate() {
		return
	}
	if p.cfg.Migration.Enabled {
		p.loadMigrate()
	}
}

// localityMigrate scans locality-managed segments for one whose traffic is
// dominated by a remote provider and moves it there. It returns true when a
// migration was performed.
func (p *Provider) localityMigrate() bool {
	for _, seg := range p.store.Segments() {
		node, share, samples, ok := p.store.TrafficShare(seg)
		if !ok || samples < p.cfg.Migration.MinTraffic {
			continue
		}
		threshold := p.store.LocalityThreshold(seg)
		if !migration.LocalityMove(p.id, node, share, threshold, p.members.IsLive) {
			continue
		}
		if p.handOff(seg, node, reasonLocality) == nil {
			return true
		}
	}
	return false
}

// loadMigrate evaluates the imbalance trigger and migrates one segment.
func (p *Provider) loadMigrate() {
	cluster := p.clusterStats()
	self := migration.NodeStat{
		ID:       p.id,
		IOLoad:   p.ioEWMA.Value(),
		UsedFrac: p.store.Disk().UsedFrac(),
	}
	trigger := migration.Decide(self, cluster)
	if trigger == migration.None {
		return
	}
	seg, ok := migration.PickSegment(trigger, p.segmentInfos())
	if !ok {
		return
	}
	reason := reasonIOLoad
	if trigger == migration.Space {
		reason = reasonSpace
	}
	// The segment's other holders (known to its home host) are not sites, so
	// migration keeps replicas on distinct providers.
	if dest, err := p.chooseDest(seg.Size, migration.DestAlpha(trigger), p.ownersOf(seg.ID), true); err == nil {
		p.handOff(seg.ID, dest, reason)
	}
}

// clusterStats snapshots cluster-wide I/O and space statistics (self
// included) from the gossiped heartbeats.
func (p *Provider) clusterStats() []migration.NodeStat {
	loads := p.members.Loads()
	out := make([]migration.NodeStat, 0, len(loads)+1)
	seenSelf := false
	for node, l := range loads {
		if node == p.id {
			seenSelf = true
		}
		out = append(out, migration.NodeStat{ID: node, IOLoad: l.IOWaitEWMA, UsedFrac: l.UsedFrac()})
	}
	if !seenSelf {
		out = append(out, migration.NodeStat{ID: p.id, IOLoad: p.ioEWMA.Value(), UsedFrac: p.store.Disk().UsedFrac()})
	}
	return out
}

// segmentInfos snapshots local segments with their temperatures.
func (p *Provider) segmentInfos() []migration.SegmentInfo {
	segs := p.store.Segments()
	out := make([]migration.SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		st := p.store.Stat(seg)
		lat, _ := p.store.LastAccess(seg)
		out = append(out, migration.SegmentInfo{ID: seg, Size: st.Size, LastAccess: lat})
	}
	return out
}
