// Package provider implements the Sorrento storage provider daemon: the
// process that exports a node's locally attached disk into a volume. It
// ties together the versioned segment store (segment I/O, shadows, 2PC),
// the location table (this node's home-host role), membership announcement
// and monitoring, lazy replica synchronization and repair (§3.6), and hosts
// the data migration engine (§3.7).
package provider

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/segstore"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes a provider.
type Config struct {
	// OpCost is the modeled user-level request-processing overhead charged
	// per segment RPC (kernel crossings, user-level daemon work). The
	// paper's Figure 9 latencies imply several milliseconds per RPC.
	OpCost time.Duration
	// RefreshInterval is the periodic content-refresh cycle (paper: 15 min).
	RefreshInterval time.Duration
	// JoinDelayMax is the random delay before refreshing a newly joined
	// provider (paper: within 20 s).
	JoinDelayMax time.Duration
	// GarbageAge is the location-table entry age beyond which entries are
	// purged (should exceed RefreshInterval).
	GarbageAge time.Duration
	// RepairInterval is how often the home-host role scans for stale or
	// under-replicated segments.
	RepairInterval time.Duration
	// RepairBatch caps sync/replicate notifications per scan, shaping the
	// background recovery rate.
	RepairBatch int
	// Membership tunes heartbeats and failure detection.
	Membership membership.Config
	// Rack labels this node's failure domain; repair places new replicas
	// on other racks when possible (rack-aware placement, §3.7.2).
	Rack string
	// Seed seeds placement decisions and jitter.
	Seed int64
	// Migration tunes the migration engine; see Migration type.
	Migration MigrationConfig
	// ScrubInterval is the background integrity scrubber's cadence: every
	// interval it verifies ScrubBatch committed segments against their
	// commit-time checksums, dropping and re-pulling corrupt versions. The
	// scan is charged to the disk arm, so interval × batch sets the scrub
	// bandwidth taken from foreground I/O. Zero defaults; negative disables.
	ScrubInterval time.Duration
	// ScrubBatch is how many segments each scrub pass verifies.
	ScrubBatch int
	// QuarantineThreshold is the cumulative corruption-detection count at
	// which the provider concludes its media is failing and self-quarantines
	// by entering the draining state. Zero defaults; negative disables.
	QuarantineThreshold int
	// Obs enables the provider's domain metrics (2PC rounds, location-table
	// hit/miss, background transfers by reason and outcome, the f_l input to
	// migration) plus disk/CPU resource gauges. Nil disables all of it.
	Obs *obs.Obs
}

// NoOpCost disables the modeled per-RPC processing charge — real daemons
// (simtime scale 1) pay their actual execution time instead.
const NoOpCost = -1 * time.Millisecond

// DefaultConfig returns the paper's settings (with a shorter refresh cycle
// left to experiments that need it).
func DefaultConfig() Config {
	return Config{
		OpCost:          5 * time.Millisecond,
		RefreshInterval: 15 * time.Minute,
		JoinDelayMax:    20 * time.Second,
		GarbageAge:      38 * time.Minute, // 2.5 × refresh
		RepairInterval:  5 * time.Second,
		RepairBatch:     4,
		Membership:      membership.DefaultConfig(),
		Seed:            1,
		Migration:       DefaultMigrationConfig(),
		// A gentle default: a full pass over a few hundred segments takes
		// tens of minutes, matching real scrubbers' weeks-per-pass posture
		// scaled to modeled runs. Chaos tests crank it way down.
		ScrubInterval:       5 * time.Minute,
		ScrubBatch:          16,
		QuarantineThreshold: 64,
	}
}

// Provider is one storage provider daemon.
type Provider struct {
	id    wire.NodeID
	clock *simtime.Clock
	cfg   Config

	ep       transport.Endpoint
	store    *segstore.Store
	table    *locate.Table
	members  *membership.Manager
	ann      *membership.Announcer
	selector *placement.Selector
	cpu      *simtime.Resource
	util     *simtime.UtilizationSampler
	loadEWMA *stats.EWMA
	ioEWMA   *stats.EWMA

	pullSem chan struct{} // bounds concurrent replica pulls
	pm      providerMetrics

	mu          sync.Mutex
	lastHome    map[ids.SegID]wire.NodeID // where each local segment was last registered
	pulling     map[ids.SegID]bool        // replica pulls in flight (coalesced)
	migrBusy    bool                      // one active migration per node (§3.7.1)
	rng         *rand.Rand
	scrubCursor ids.SegID // scrub resume point (sorted-ID order)
	quarantined bool      // corruption threshold tripped (latched)

	// Drain state (admin plane): draining is gossiped in heartbeats so the
	// whole cluster stops placing new data here; drainStop cancels the
	// background drain worker on abort.
	draining  atomic.Bool
	drainStop chan struct{} // under mu

	// Membership events are coalesced into a single worker goroutine: at a
	// 512-node mass join a goroutine-per-event design parks tens of
	// thousands of goroutines per process on join-delay timers.
	memberMu    sync.Mutex
	pendingJoin map[wire.NodeID]struct{} // newcomers awaiting a refresh pass
	departed    []wire.NodeID            // departures awaiting table cleanup
	memberKick  chan struct{}            // cap 1; wakes membershipWorker

	stopMu  sync.Mutex
	stopped bool // under stopMu; once set, spawn refuses
	stop    chan struct{}
	wg      sync.WaitGroup
}

// providerMetrics holds the provider's domain metric handles, resolved once
// at construction. All handles are nil when obs is off; every method on a
// nil handle is a no-op, so call sites stay unconditional.
type providerMetrics struct {
	prepare2PC  *obs.Counter
	commit2PC   *obs.Counter
	abort2PC    *obs.Counter
	prepareLat  *obs.Histogram
	commitLat   *obs.Histogram
	locHits     *obs.Counter
	locMisses   *obs.Counter
	quarantines *obs.Counter
	scrubLat    *obs.Histogram
	loadFL      *obs.Gauge // f_l: the smoothed I/O load input to migration
}

// instrument registers the provider's observability surface: domain metric
// handles, disk/CPU resource gauges, space gauges, and the membership
// failure-detection metrics. Runs before Start so no locks are needed.
func (p *Provider) instrument(d *disk.Disk) {
	reg := p.cfg.Obs.Reg()
	if reg == nil {
		return
	}
	node := obs.L("node", string(p.id))
	p.pm = providerMetrics{
		prepare2PC:  reg.Counter("sorrento_provider_2pc_total", node, obs.L("phase", "prepare")),
		commit2PC:   reg.Counter("sorrento_provider_2pc_total", node, obs.L("phase", "commit")),
		abort2PC:    reg.Counter("sorrento_provider_2pc_total", node, obs.L("phase", "abort")),
		prepareLat:  reg.Histogram("sorrento_provider_2pc_seconds", nil, node, obs.L("phase", "prepare")),
		commitLat:   reg.Histogram("sorrento_provider_2pc_seconds", nil, node, obs.L("phase", "commit")),
		locHits:     reg.Counter("sorrento_provider_loc_queries_total", node, obs.L("result", "hit")),
		locMisses:   reg.Counter("sorrento_provider_loc_queries_total", node, obs.L("result", "miss")),
		quarantines: reg.Counter("sorrento_integrity_quarantines_total", node),
		scrubLat:    reg.Histogram("sorrento_integrity_scrub_seconds", nil, node),
		loadFL:      reg.Gauge("sorrento_provider_load_fl", node),
	}
	obs.RegisterResource(reg, p.clock, d.Resource(), node)
	obs.RegisterResource(reg, p.clock, p.cpu, node)
	reg.GaugeFunc("sorrento_disk_used_bytes", func() float64 { return float64(d.Used()) }, node)
	reg.GaugeFunc("sorrento_disk_used_frac", d.UsedFrac, node)
	reg.GaugeFunc("sorrento_provider_shadows_open", func() float64 { return float64(p.store.ShadowCount()) }, node)
	reg.GaugeFunc("sorrento_provider_segments", func() float64 { return float64(p.store.Len()) }, node)
	// Integrity counters live in the store as atomics (hot read path); the
	// registry polls them as gauges with the counter-style names the rest of
	// the sorrento_integrity_* family uses.
	reg.GaugeFunc("sorrento_integrity_verified_total", func() float64 {
		return float64(p.store.IntegrityStats().VerifiedBlocks)
	}, node)
	reg.GaugeFunc("sorrento_integrity_corrupt_total", func() float64 {
		return float64(p.store.IntegrityStats().Detected)
	}, node)
	reg.GaugeFunc("sorrento_integrity_injected_total", func() float64 {
		s := p.store.IntegrityStats()
		return float64(s.InjectedWrite + s.InjectedRead)
	}, node)
	p.members.Instrument(reg, string(p.id))
}

// New constructs a provider on the given network. extraResources (e.g. the
// node's NIC directions) are folded into the utilization it gossips.
func New(id wire.NodeID, clock *simtime.Clock, cfg Config, network transport.Network, d *disk.Disk, extraResources ...*simtime.Resource) (*Provider, error) {
	return NewWithStore(id, clock, cfg, network, segstore.New(clock, d), extraResources...)
}

// NewWithStore constructs a provider over an existing segment store — the
// crash-restart path: the store (the node's disk contents) survives the
// crash, and the restarted daemon re-announces, re-registers its segments,
// and resyncs whatever it missed. Callers restarting over a store should
// run store.CrashRecover() first to shed volatile shadow/2PC state.
func NewWithStore(id wire.NodeID, clock *simtime.Clock, cfg Config, network transport.Network, store *segstore.Store, extraResources ...*simtime.Resource) (*Provider, error) {
	d := store.Disk()
	def := DefaultConfig()
	if cfg.OpCost == 0 {
		cfg.OpCost = def.OpCost
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = def.RefreshInterval
	}
	if cfg.JoinDelayMax <= 0 {
		cfg.JoinDelayMax = def.JoinDelayMax
	}
	if cfg.GarbageAge <= 0 {
		cfg.GarbageAge = cfg.RefreshInterval*2 + cfg.RefreshInterval/2
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = def.RepairInterval
	}
	if cfg.RepairBatch <= 0 {
		cfg.RepairBatch = def.RepairBatch
	}
	if cfg.ScrubInterval == 0 {
		cfg.ScrubInterval = def.ScrubInterval
	}
	if cfg.ScrubBatch <= 0 {
		cfg.ScrubBatch = def.ScrubBatch
	}
	if cfg.QuarantineThreshold == 0 {
		cfg.QuarantineThreshold = def.QuarantineThreshold
	}
	if cfg.Membership.HeartbeatInterval <= 0 {
		cfg.Membership.HeartbeatInterval = membership.DefaultConfig().HeartbeatInterval
	}
	if cfg.Membership.FailureFactor <= 0 {
		cfg.Membership.FailureFactor = membership.DefaultConfig().FailureFactor
	}
	cfg.Migration = cfg.Migration.withDefaults()

	p := &Provider{
		id:         id,
		clock:      clock,
		cfg:        cfg,
		store:      store,
		table:      locate.NewTable(clock),
		members:    membership.NewManager(clock, cfg.Membership),
		selector:   placement.NewSelector(cfg.Seed),
		cpu:        simtime.NewResource(clock, string(id)+"/cpu"),
		loadEWMA:   stats.NewEWMA(loadEWMAAlpha),
		ioEWMA:     stats.NewEWMA(loadEWMAAlpha),
		pullSem:    make(chan struct{}, maxPulls),
		lastHome:   make(map[ids.SegID]wire.NodeID),
		pulling:    make(map[ids.SegID]bool),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		memberKick: make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	res := append([]*simtime.Resource{d.Resource(), p.cpu}, extraResources...)
	p.util = simtime.NewUtilizationSampler(clock, res...)
	p.instrument(d)
	ep, err := network.Join(id, (*handler)(p))
	if err != nil {
		return nil, err
	}
	p.ep = ep
	p.ann = membership.NewAnnouncer(clock, cfg.Membership, ep, p.loadInfo, p.members.ObserveHeartbeat)
	p.members.Subscribe(p.onMembershipEvent)
	return p, nil
}

// ID returns the provider's node ID.
func (p *Provider) ID() wire.NodeID { return p.id }

// Store exposes the segment store (tests, experiment harness).
func (p *Provider) Store() *segstore.Store { return p.store }

// Table exposes the location table (tests).
func (p *Provider) Table() *locate.Table { return p.table }

// Members exposes the membership view.
func (p *Provider) Members() *membership.Manager { return p.members }

// Endpoint exposes the transport endpoint.
func (p *Provider) Endpoint() transport.Endpoint { return p.ep }

// Start launches the daemon's background loops.
func (p *Provider) Start() {
	p.spawn(p.membershipWorker)
	p.members.Start()
	p.ann.Start()
	p.loop(p.cfg.RefreshInterval, func() { p.refresh("", false) })
	p.loop(p.cfg.RefreshInterval, func() { p.table.PurgeGarbage(p.cfg.GarbageAge) })
	p.loop(p.cfg.RepairInterval, p.repairScan)
	p.loop(p.cfg.Membership.HeartbeatInterval, p.sampleLoad)
	expireEvery := 30 * time.Second
	if floor := p.clock.Modeled(time.Second); floor > expireEvery {
		expireEvery = floor
	}
	p.loop(expireEvery, func() { p.store.ExpireShadows() })
	p.loop(p.cfg.Migration.Interval, p.migrationTick)
	if p.cfg.ScrubInterval > 0 {
		p.loop(p.cfg.ScrubInterval, p.scrubTick)
	}
}

// Stop halts the daemon. The endpoint stays open unless Kill is used.
func (p *Provider) Stop() {
	p.stopMu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	p.stopMu.Unlock()
	p.ann.Stop()
	p.members.Stop()
	p.wg.Wait()
}

// Kill simulates a crash: all loops stop and the endpoint goes silent.
func (p *Provider) Kill() {
	p.Stop()
	p.ep.Close()
}

// spawn runs fn on a goroutine that Stop waits for, and reports whether it
// did. It refuses once Stop has begun: the endpoint stays open after Stop, so
// handlers keep arriving, and a WaitGroup being waited on must not be added
// to.
func (p *Provider) spawn(fn func()) bool {
	p.stopMu.Lock()
	defer p.stopMu.Unlock()
	if p.stopped {
		return false
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
	return true
}

// loop runs fn every interval until Stop.
func (p *Provider) loop(interval time.Duration, fn func()) {
	p.spawn(func() {
		t := p.clock.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				fn()
			}
		}
	})
}

// sampleLoad folds a fresh utilization sample into the gossiped EWMAs.
func (p *Provider) sampleLoad() {
	u := p.util.Sample()
	p.loadEWMA.Add(u)
	p.ioEWMA.Add(u)
	p.pm.loadFL.Set(p.ioEWMA.Value())
}

// loadInfo snapshots the load/space state for heartbeats.
func (p *Provider) loadInfo() wire.LoadInfo {
	d := p.store.Disk()
	return wire.LoadInfo{
		Rack:       p.cfg.Rack,
		Load:       p.loadEWMA.Value(),
		IOWaitEWMA: p.ioEWMA.Value(),
		FreeBytes:  d.FreeBytes(),
		TotalBytes: d.Capacity(),
		Draining:   p.draining.Load(),
	}
}

// charge models per-RPC server processing cost (disabled via NoOpCost).
func (p *Provider) charge() {
	if p.cfg.OpCost > 0 {
		p.cpu.Use(p.cfg.OpCost)
	}
}

// homeOf computes the current home host for a segment.
func (p *Provider) homeOf(seg ids.SegID) wire.NodeID { return p.members.HomeOf(seg) }

// call is a fire-and-check RPC helper for background traffic.
func (p *Provider) call(to wire.NodeID, req any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return p.ep.Call(ctx, to, req)
}

// onMembershipEvent records a provider join or departure (paper §3.4.1
// events 2 and 3) and wakes the membership worker. It runs synchronously on
// the heartbeat path, so it only enqueues: at cluster formation every node
// sees N-1 joins nearly at once, and spawning a delayed goroutine per event
// (the old design) parked O(N) goroutines per process — O(N²) per cluster —
// on join-delay timers.
func (p *Provider) onMembershipEvent(e membership.Event) {
	if e.Node == p.id {
		return
	}
	p.memberMu.Lock()
	if e.Joined {
		if p.pendingJoin == nil {
			p.pendingJoin = make(map[wire.NodeID]struct{})
		}
		p.pendingJoin[e.Node] = struct{}{}
	} else {
		p.departed = append(p.departed, e.Node)
	}
	p.memberMu.Unlock()
	select {
	case p.memberKick <- struct{}{}:
	default:
	}
}

// membershipWorker is the single goroutine that services membership events.
// Departures are handled immediately: the departed node's entries leave our
// location table and our segments re-home right away, as repair depends on
// it. Joins are batched behind one random delay (≤ JoinDelayMax) so the
// cluster's refresh traffic toward a newcomer is staggered across senders
// without stampeding it (paper §3.4.1 event 2); every join that lands while
// the delay runs joins the same refresh pass.
func (p *Provider) membershipWorker() {
	var joinTimer <-chan time.Time // armed while a join batch is pending
	for {
		select {
		case <-p.stop:
			return
		case <-p.memberKick:
		case <-joinTimer:
			joinTimer = nil
			p.memberMu.Lock()
			joins := p.pendingJoin
			p.pendingJoin = nil
			p.memberMu.Unlock()
			for n := range joins {
				// A newcomer that already departed again gets dropped;
				// its re-join, if any, raises a fresh event.
				if p.members.IsLive(n) {
					p.refresh(n, false)
				}
			}
			if len(joins) > 0 {
				p.refresh("", true)
			}
		}
		p.memberMu.Lock()
		dep := p.departed
		p.departed = nil
		havePendingJoins := len(p.pendingJoin) > 0
		p.memberMu.Unlock()
		if len(dep) > 0 {
			for _, n := range dep {
				p.table.RemoveOwner(n)
			}
			p.refresh("", true)
		}
		if havePendingJoins && joinTimer == nil {
			p.mu.Lock()
			delay := time.Duration(p.rng.Int63n(int64(p.cfg.JoinDelayMax)))
			p.mu.Unlock()
			joinTimer = p.clock.After(delay)
		}
	}
}

// RepairNeeds returns the sync/repair actions this node is responsible for
// as home host under its current membership view. Table records for
// segments whose home role lies elsewhere are excluded: a node that
// rejoined from a crash with a momentarily tiny view registers its segments
// with itself, and repair-scanning those stale records livelocks — every
// replica site already announces to the rightful home, never to us. The
// rightful home repairs them; GarbageAge purges the stale records.
func (p *Provider) RepairNeeds() []locate.SyncAction {
	actions := p.table.Scan(p.members.IsLive)
	out := actions[:0]
	for _, act := range actions {
		if p.homeOf(act.Seg) == p.id {
			out = append(out, act)
		}
	}
	return out
}

// repairScan is the home-host maintenance pass: notify stale replicas to
// sync and choose fresh sites for under-replicated segments (paper §3.6), at
// most RepairBatch notifications per pass.
func (p *Provider) repairScan() {
	budget := p.cfg.RepairBatch
	for _, act := range p.RepairNeeds() {
		if budget <= 0 {
			return
		}
		budget -= p.notifyStale(act, budget)
		holders := make([]wire.OwnerInfo, 0, len(act.CurrentOwners)+act.Deficit)
		for _, o := range act.CurrentOwners {
			holders = append(holders, wire.OwnerInfo{Node: o})
		}
		for i := 0; i < act.Deficit && budget > 0; i++ {
			dest, err := p.chooseDest(act.Size, 0.5, holders, false)
			if err != nil {
				break
			}
			holders = append(holders, wire.OwnerInfo{Node: dest})
			budget--
			p.spawn(func() {
				p.call(dest, wire.ReplicateNotify{
					Seg:               act.Seg,
					Version:           act.Latest,
					Source:            act.Source,
					ReplDeg:           act.ReplDeg,
					LocalityThreshold: act.LocalityThreshold,
				})
			})
		}
	}
}
