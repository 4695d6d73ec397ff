package provider_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// scrubOpts is fastOpts with an aggressive scrub cycle so detection and
// repair are observable within a short modeled run.
func scrubOpts(providers int, quarantineAt int) cluster.Options {
	opts := fastOpts(providers)
	opts.Provider.ScrubInterval = 2 * time.Second
	opts.Provider.ScrubBatch = 128
	opts.Provider.QuarantineThreshold = quarantineAt
	return opts
}

// transfers reads sorrento_transfer_total{node,reason,outcome}.
func transfers(o *obs.Obs, node wire.NodeID, reason, outcome string) int64 {
	return o.Reg().Counter("sorrento_transfer_total", obs.L("node", string(node)), obs.L("reason", reason), obs.L("outcome", outcome)).Value()
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	opts := scrubOpts(4, -1)
	opts.Obs = obs.New(simtime.Real())
	c := startCluster(t, opts)
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 3
	payload := bytes.Repeat([]byte("integrity"), 8<<10)
	f, err := cl.Create("/scrubbed", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(payload, 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, _ := cl.Stat("/scrubbed")
	waitFor(t, 20*time.Second, "initial replication", func() bool {
		return replicaCount(c, entry) >= 3
	})

	// Rot one replica in place.
	var victim wire.NodeID
	for id, p := range c.Providers() {
		if p.Store().Stat(entry.FileID).Present {
			victim = id
			break
		}
	}
	vs := c.Provider(victim).Store()
	if !vs.Corrupt(entry.FileID) {
		t.Fatalf("could not corrupt %s on %s", entry.FileID.Short(), victim)
	}
	if vs.VerifyAll() == 0 {
		t.Fatal("corruption oracle reports clean store")
	}

	// The scrubber must detect the rot, drop the bad version, and re-pull a
	// clean copy from a healthy replica.
	waitFor(t, 60*time.Second, "scrub repair", func() bool {
		return vs.VerifyAll() == 0 && vs.Stat(entry.FileID).Present
	})
	if vs.IntegrityStats().Detected == 0 {
		t.Fatal("scrub repaired without recording a detection")
	}
	// The repair is a pull like any other, counted under its own reason.
	if n := transfers(opts.Obs, victim, "scrub", "full") + transfers(opts.Obs, victim, "scrub", "delta"); n == 0 {
		t.Error("scrub repair not counted in sorrento_transfer_total{reason=scrub}")
	}

	// The file never serves wrong bytes, before or after repair.
	g, err := cl.Open("/scrubbed")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch after scrub repair")
	}
}

func TestScrubQuarantinesFailingMedia(t *testing.T) {
	c := startCluster(t, scrubOpts(4, 1))
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	f, err := cl.Create("/fragile", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 64<<10), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, _ := cl.Stat("/fragile")
	waitFor(t, 20*time.Second, "initial replication", func() bool {
		return replicaCount(c, entry) >= 2
	})

	var victim wire.NodeID
	for id, p := range c.Providers() {
		if p.Store().Stat(entry.FileID).Present {
			victim = id
			break
		}
	}
	vp := c.Provider(victim)
	if !vp.Store().Corrupt(entry.FileID) {
		t.Fatal("could not corrupt replica")
	}

	// One detection crosses the threshold: the provider self-quarantines by
	// entering the admin draining state, observable cluster-wide.
	waitFor(t, 60*time.Second, "self-quarantine", func() bool {
		return vp.Quarantined() && vp.Draining()
	})
	if !vp.AdminState().Draining {
		t.Fatal("admin state does not show draining")
	}

	// The drain evacuates its data; the file stays fully readable.
	waitFor(t, 60*time.Second, "evacuation", func() bool {
		return vp.Store().Len() == 0
	})
	g, err := cl.Open("/fragile")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after quarantine: %v", err)
	}
}
