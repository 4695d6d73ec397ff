package provider_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/simtime"
	"repro/internal/wire"
)

func TestDrainAbortRacesEvacuation(t *testing.T) {
	c := startCluster(t, fastOpts(5))
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	var entries []wire.FileEntry
	for i := 0; i < 6; i++ {
		f, err := cl.Create(fmt.Sprintf("/d%d", i), attrs)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(make([]byte, 64<<10), 0)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		e, _ := cl.Stat(fmt.Sprintf("/d%d", i))
		entries = append(entries, e)
	}
	waitFor(t, 30*time.Second, "replication", func() bool {
		for _, e := range entries {
			if replicaCount(c, e) < 2 {
				return false
			}
		}
		return true
	})

	// Pick a loaded provider, start draining, and abort while the background
	// evacuation worker is mid-sweep.
	var victim wire.NodeID
	for id, p := range c.Providers() {
		if p.Store().Len() > 0 {
			victim = id
			break
		}
	}
	vp := c.Provider(victim)
	if err := vp.Drain(false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the worker start a sweep
	if err := vp.Drain(true); err != nil {
		t.Fatal(err)
	}
	if vp.Draining() {
		t.Fatal("abort left the provider draining")
	}

	// The abort must leave the node fully functional: everything remains
	// readable, and a second drain later runs the evacuation to completion.
	for i := range entries {
		g, err := cl.Open(fmt.Sprintf("/d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		if _, err := g.ReadAt(buf, 0); err != nil {
			t.Fatalf("read /d%d after abort: %v", i, err)
		}
	}
	if err := vp.Drain(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "re-drain evacuation", func() bool {
		return vp.Store().Len() == 0
	})
}

// A migration/drain hand-off erases the source copy on ack. When the
// destination's media silently drops the install (lost write), the
// destination must refuse the ack — read-back verification — or the last
// clean replica of a ReplDeg-1 segment would be destroyed.
func TestHandoffRefusesLyingDestinationMedia(t *testing.T) {
	opts := fastOpts(3)
	opts.Obs = obs.New(simtime.Real())
	c := startCluster(t, opts)
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 1
	payload := bytes.Repeat([]byte("handoff"), 8<<10)
	f, err := cl.Create("/handoff", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(payload, 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, _ := cl.Stat("/handoff")
	if err := c.AwaitQuiesce(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	var src wire.NodeID
	for id, p := range c.Providers() {
		if p.Store().Stat(entry.FileID).Present {
			src = id
			break
		}
	}
	// Every other node's media silently loses background installs: a
	// migration destination installs stale bytes yet would ack OK without
	// the hand-off read-back.
	for id, p := range c.Providers() {
		if id != src {
			p.Store().InjectFaults(segstore.FaultConfig{Seed: 42, LostWrite: 1})
		}
	}
	sp := c.Provider(src)
	if err := sp.Drain(false); err != nil {
		t.Fatal(err)
	}

	// Give the drain worker several evacuation attempts (wall sleep spans
	// minutes of modeled time at this scale). Every attempt must fail the
	// hand-off verification and leave the sole clean copy in place.
	time.Sleep(200 * time.Millisecond)
	if !sp.Store().Stat(entry.FileID).Present {
		t.Fatal("source erased its copy despite failed hand-off verification")
	}
	if !sp.Store().VerifyVersion(entry.FileID, 0) {
		t.Fatal("source copy no longer verifies clean")
	}
	if fail, ok := transfers(opts.Obs, src, "drain", "fail"), transfers(opts.Obs, src, "drain", "handoff"); fail == 0 || ok != 0 {
		t.Errorf("source counted %d failed and %d completed hand-offs, want some and none", fail, ok)
	}
	got := make([]byte, len(payload))
	g, err := cl.Open("/handoff")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatalf("read during refused drain: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read during refused drain returned wrong bytes")
	}

	// Healed media: the drain completes and the data survives intact.
	for id, p := range c.Providers() {
		if id != src {
			p.Store().ClearFaults()
		}
	}
	waitFor(t, 60*time.Second, "evacuation after heal", func() bool {
		return sp.Store().Len() == 0
	})
	g, err = cl.Open("/handoff")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatalf("read after evacuation: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload damaged by evacuation onto healed media")
	}
}

func TestRetireRefusedWhileRepairInFlight(t *testing.T) {
	opts := fastOpts(4)
	opts.Provider.ScrubInterval = 2 * time.Second
	opts.Provider.ScrubBatch = 128
	opts.Provider.QuarantineThreshold = -1
	c := startCluster(t, opts)
	cl := mkClient(t, c, "c1")

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	f, err := cl.Create("/held", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 128<<10), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, _ := cl.Stat("/held")
	waitFor(t, 20*time.Second, "replication", func() bool {
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

	// Kick a scrub-repair cycle into flight on the draining node: the rotted
	// copy is dropped and re-pulled while the drain worker is evacuating.
	vp.Store().Corrupt(entry.FileID)
	if err := vp.Drain(false); err != nil {
		t.Fatal(err)
	}

	// Retire before evacuation finishes must be refused, not tear the node
	// down under in-flight transfers.
	if vp.Store().Len() > 0 {
		if err := vp.Retire(); err == nil {
			t.Fatal("Retire succeeded with segments still held")
		}
	}

	// Once the store fully empties, retire goes through and the node exits.
	waitFor(t, 60*time.Second, "evacuation", func() bool {
		return vp.Store().Len() == 0 && vp.Store().ShadowCount() == 0
	})
	waitFor(t, 30*time.Second, "retire accepted", func() bool {
		return vp.Retire() == nil
	})

	// The data survives the retirement with full integrity.
	g, err := cl.Open("/held")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after retire: %v", err)
	}
}
