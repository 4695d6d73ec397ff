package provider_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/layout"
	"repro/internal/provider"
	"repro/internal/wire"
)

// fastOpts builds cluster options with short maintenance cycles so
// self-organization is observable quickly in modeled time.
func fastOpts(providers int) cluster.Options {
	pcfg := provider.DefaultConfig()
	pcfg.RefreshInterval = 10 * time.Second
	pcfg.GarbageAge = 25 * time.Second
	pcfg.RepairInterval = 2 * time.Second
	pcfg.RepairBatch = 8
	pcfg.Migration.Interval = 5 * time.Second
	return cluster.Options{
		Providers: providers,
		Scale:     0.0005,
		Provider:  pcfg,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	}
}

func startCluster(t *testing.T, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(opts.Providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

func mkClient(t *testing.T, c *cluster.Cluster, name string) *core.Client {
	t.Helper()
	cl, err := c.NewClient(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForProviders(1, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return cl
}

// replicaCount counts providers holding a committed copy of seg.
func replicaCount(c *cluster.Cluster, seg wire.FileEntry) int {
	n := 0
	for _, p := range c.Providers() {
		if p.Store().Stat(seg.FileID).Present {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, wallTimeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(wallTimeout)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for %s", what)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestFailureDetectionAndDataRecovery(t *testing.T) {
	c := startCluster(t, fastOpts(5))
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 3
	f, err := cl.Create("/vital", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 100<<10), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, _ := cl.Stat("/vital")

	// Wait for full replication.
	waitFor(t, 20*time.Second, "initial replication", func() bool {
		return replicaCount(c, entry) >= 3
	})

	// Kill a provider holding a replica.
	var victim wire.NodeID
	for id, p := range c.Providers() {
		if p.Store().Stat(entry.FileID).Present {
			victim = id
			break
		}
	}
	if err := c.KillProvider(victim); err != nil {
		t.Fatal(err)
	}

	// Failure detection: survivors drop the victim from their live sets.
	waitFor(t, 30*time.Second, "failure detection", func() bool {
		for _, p := range c.Providers() {
			if p.Members().IsLive(victim) {
				return false
			}
		}
		return true
	})

	// Data recovery: the replication degree is restored on the survivors.
	waitFor(t, 60*time.Second, "re-replication", func() bool {
		return replicaCount(c, entry) >= 3
	})

	// The file remains fully readable throughout.
	g, err := cl.Open("/vital")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after failure: %v", err)
	}
}

func TestNodeAdditionJoinsRing(t *testing.T) {
	c := startCluster(t, fastOpts(3))
	cl := mkClient(t, c, "c1")
	f, _ := cl.Create("/f", wire.DefaultAttrs())
	f.WriteAt(make([]byte, 50<<10), 0)
	f.Close()

	// Add a provider; everyone must learn about it.
	if _, err := c.AddProvider(cluster.ProviderID(9)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "join detection", func() bool {
		for _, p := range c.Providers() {
			if !p.Members().IsLive(cluster.ProviderID(9)) {
				return false
			}
		}
		return cl.Members().IsLive(cluster.ProviderID(9))
	})

	// Existing data stays reachable after re-homing (some segments' home
	// hosts moved to the new node, which owners must refresh).
	waitFor(t, 60*time.Second, "post-join readability", func() bool {
		g, err := cl.Open("/f")
		if err != nil {
			return false
		}
		buf := make([]byte, 512)
		_, rerr := g.ReadAt(buf, 0)
		return rerr == nil
	})
}

func TestRepairedNodeRejoinsAndContentSurvives(t *testing.T) {
	// Paper §2.2: a repaired machine reconnects without reformatting; the
	// system determines what is current. Here a new provider with the same
	// ID joins (simnet frees the ID) and the cluster keeps working.
	c := startCluster(t, fastOpts(4))
	cl := mkClient(t, c, "c1")
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	f, _ := cl.Create("/f", attrs)
	f.WriteAt(make([]byte, 30<<10), 0)
	f.Close()
	entry, _ := cl.Stat("/f")
	waitFor(t, 20*time.Second, "replication", func() bool { return replicaCount(c, entry) >= 2 })

	victim := cluster.ProviderID(2)
	c.KillProvider(victim)
	c.Fabric.Remove(victim)
	waitFor(t, 30*time.Second, "failure detection", func() bool {
		return !cl.Members().IsLive(victim)
	})
	if _, err := c.AddProvider(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "rejoin", func() bool { return cl.Members().IsLive(victim) })
	g, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after rejoin: %v", err)
	}
}

func TestSpaceTriggeredMigration(t *testing.T) {
	// Load one provider's disk far beyond its peers and verify segments
	// migrate off it.
	opts := fastOpts(5)
	opts.DiskCapacity = 4 << 20 // 4 MB per provider
	c := startCluster(t, opts)
	cl := mkClient(t, c, "c1")

	// Fill one provider directly through its store to create the imbalance.
	var fat *provider.Provider
	for _, p := range c.Providers() {
		fat = p
		break
	}
	for i := 0; i < 12; i++ {
		seg := newSeg()
		if err := fat.Store().Create(seg, make([]byte, 256<<10), 1, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	_ = cl // the client only anchors the cluster's client view

	// Migration should shed cold segments to space-rich peers: the fat
	// provider drains while the shed segments appear elsewhere.
	waitFor(t, 90*time.Second, "space-triggered migration", func() bool {
		others := 0
		for id, p := range c.Providers() {
			if p == fat {
				_ = id
				continue
			}
			others += p.Store().Len()
		}
		return fat.Store().Disk().UsedFrac() < 0.55 && others >= 3
	})
}

func TestLocalityDrivenMigration(t *testing.T) {
	opts := fastOpts(4)
	c := startCluster(t, opts)

	// A co-located client on p00 hammers a locality-managed segment that
	// lives on another provider; the segment should migrate to p00.
	cl, err := c.NewClientAt("c1", cluster.ProviderID(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForProviders(4, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	attrs := wire.DefaultAttrs()
	attrs.LocalityThreshold = 0.6
	attrs.Policy = wire.PlaceRandom
	f, err := cl.Create("/hot", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 100<<10), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Hammer reads from p00's co-located client until the data lands on
	// p00 itself.
	waitFor(t, 120*time.Second, "locality migration", func() bool {
		g, err := cl.Open("/hot")
		if err != nil {
			return false
		}
		buf := make([]byte, 64<<10)
		for off := int64(0); off < 100<<10; off += 64 << 10 {
			g.ReadAt(buf, off)
		}
		// Are all data segments now on p00?
		p0 := c.Provider(cluster.ProviderID(0))
		entry, _ := cl.Stat("/hot")
		_ = entry
		return p0.Store().Len() >= 2 // index may stay; data segments arrive
	})
}

var segCounter int

func newSeg() (id [16]byte) {
	segCounter++
	id[0] = byte(segCounter)
	id[1] = byte(segCounter >> 8)
	id[15] = 0xAB
	return id
}

func TestLocationRefreshAfterGarbagePurge(t *testing.T) {
	// Periodic refresh must keep entries alive past the garbage age.
	c := startCluster(t, fastOpts(3))
	cl := mkClient(t, c, "c1")
	f, _ := cl.Create("/f", wire.DefaultAttrs())
	f.WriteAt(make([]byte, 30<<10), 0)
	f.Close()

	// Sleep well past GarbageAge (25 s) in modeled time; refresh cycles
	// (10 s) must keep the file locatable.
	c.Clock.Sleep(60 * time.Second)
	g, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after refresh cycles: %v", err)
	}
}

// rackCluster starts four providers across two racks.
func rackCluster(t *testing.T) (*cluster.Cluster, map[wire.NodeID]string) {
	t.Helper()
	opts := fastOpts(-1)
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	racks := map[wire.NodeID]string{
		cluster.ProviderID(0): "rackA",
		cluster.ProviderID(1): "rackA",
		cluster.ProviderID(2): "rackB",
		cluster.ProviderID(3): "rackB",
	}
	for i := 0; i < 4; i++ {
		id := cluster.ProviderID(i)
		if _, err := c.AddProviderCfg(id, func(cfg *provider.Config) {
			cfg.Rack = racks[id]
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AwaitStable(4, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return c, racks
}

func TestRackAwareReplicaPlacement(t *testing.T) {
	// Four providers across two racks; a 2×-replicated file's replicas
	// must land on distinct racks (paper §3.7.2's GoogleFS-style goal).
	c, racks := rackCluster(t)
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	// Several files, so at least one's two index replicas are checkable.
	for i := 0; i < 6; i++ {
		f, err := cl.Create("/rack"+string(rune('0'+i)), attrs)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(make([]byte, 30<<10), 0)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for replication, then check every fully replicated segment
	// spans both racks.
	waitFor(t, 30*time.Second, "replication", func() bool {
		return c.PendingRepairs() == 0
	})
	checked, crossRack := 0, 0
	for i := 0; i < 6; i++ {
		entry, _ := cl.Stat("/rack" + string(rune('0'+i)))
		holders := map[string]bool{}
		for id, p := range c.Providers() {
			if p.Store().Stat(entry.FileID).Present {
				holders[racks[id]] = true
			}
		}
		if len(holders) > 0 {
			checked++
			if len(holders) == 2 {
				crossRack++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no replicated files to check")
	}
	if crossRack < checked {
		t.Errorf("only %d/%d files span both racks", crossRack, checked)
	}
}

// TestMigrationKeepsRackSpread: a drain moves replicas through the same
// destination choice as repair, so the copies it evacuates stay off the rack
// of the replica that remains. (Drain and load migration used to ignore rack
// labels and undid repair's spread half the time.)
func TestMigrationKeepsRackSpread(t *testing.T) {
	c, racks := rackCluster(t)
	cl := mkClient(t, c, "c1")
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	var segs []ids.SegID
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/spread%d", i)
		f, err := cl.Create(path, attrs)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(make([]byte, 30<<10), 0)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		entry, err := cl.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, entry.FileID) // 30 KB rides attached in the index segment
	}
	waitFor(t, 30*time.Second, "replication", func() bool { return c.PendingRepairs() == 0 })
	racksOf := func(seg ids.SegID) map[string]bool {
		out := map[string]bool{}
		for id, p := range c.Providers() {
			if p.Store().Stat(seg).Present {
				out[racks[id]] = true
			}
		}
		return out
	}
	for _, seg := range segs {
		if len(racksOf(seg)) != 2 {
			t.Fatalf("before the drain %s spans %v, want both racks", seg.Short(), racksOf(seg))
		}
	}

	// Drain the fullest provider: every copy it evacuates is one draw, and one
	// rack-blind draw in two lands beside the replica that stays.
	var victim *provider.Provider
	for _, p := range c.Providers() {
		if victim == nil || p.Store().Len() > victim.Store().Len() {
			victim = p
		}
	}
	if err := victim.Drain(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "evacuation", func() bool {
		return victim.Store().Len() == 0 && c.PendingRepairs() == 0
	})
	for _, seg := range segs {
		if len(racksOf(seg)) != 2 {
			t.Errorf("after the drain %s spans only %v", seg.Short(), racksOf(seg))
		}
	}
}
