package provider

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Drain state machine (admin plane):
//
//	serving --AdminDrain--> draining --AdminRetire--> retired (daemon exits)
//	   ^                       |
//	   +----AdminDrain{Abort}--+
//
// A draining provider keeps serving reads, open shadows, and its home-host
// role, and it keeps heartbeating — but its heartbeats carry Draining=true,
// so every placement decision in the cluster (client writes, repair targets,
// migration destinations) stops choosing it. A background worker migrates
// the local segments to the remaining providers through the same
// replicate-then-erase path as load migration (§3.7.1), which only deletes
// the local copy after the destination confirms it holds the bytes — so a
// drain can never lose an acked commit. Retire succeeds only once the store
// is empty and no write sessions remain.

// Drain marks the provider draining and starts (or, with abort, cancels)
// the background segment evacuation.
func (p *Provider) Drain(abort bool) error {
	p.mu.Lock()
	if abort {
		if p.draining.Load() {
			p.draining.Store(false)
			if p.drainStop != nil {
				close(p.drainStop)
				p.drainStop = nil
			}
		}
		p.mu.Unlock()
		return nil
	}
	if p.draining.Load() {
		p.mu.Unlock()
		return nil // already draining; the worker is running
	}
	p.draining.Store(true)
	stop := make(chan struct{})
	p.drainStop = stop
	p.mu.Unlock()
	if !p.spawn(func() { p.drainWorker(stop) }) {
		return fmt.Errorf("provider %s: stopped", p.id)
	}
	return nil
}

// Draining reports whether a drain is in progress.
func (p *Provider) Draining() bool { return p.draining.Load() }

// AdminState snapshots the provider's admin-visible state.
func (p *Provider) AdminState() wire.AdminStatusResp {
	d := p.store.Disk()
	return wire.AdminStatusResp{
		OK:         true,
		Node:       p.id,
		Draining:   p.draining.Load(),
		Segments:   p.store.Len(),
		Shadows:    p.store.ShadowCount(),
		FreeBytes:  d.FreeBytes(),
		TotalBytes: d.Capacity(),
	}
}

// Retire shuts the daemon down once a drain has fully evacuated it. The
// endpoint closes shortly after the acknowledgment is sent; peers then
// declare the node dead via the usual heartbeat silence window.
func (p *Provider) Retire() error {
	if !p.draining.Load() {
		return fmt.Errorf("provider %s: retire: not draining", p.id)
	}
	if n := p.store.Len(); n > 0 {
		return fmt.Errorf("provider %s: retire: %d segments still held", p.id, n)
	}
	if n := p.store.ShadowCount(); n > 0 {
		return fmt.Errorf("provider %s: retire: %d write sessions still open", p.id, n)
	}
	go func() {
		// Let the acknowledgment drain out before the endpoint goes away.
		p.clock.Sleep(100 * time.Millisecond)
		p.Kill()
	}()
	return nil
}

// drainWorker repeatedly sweeps the local store, migrating every committed
// segment away, until the drain is aborted or the daemon stops. It keeps
// running even once the store is empty: stragglers can still land here
// (write sessions opened before the Draining heartbeat propagated commit
// locally first) and are evacuated on a later sweep.
func (p *Provider) drainWorker(stop chan struct{}) {
	interval := 200 * time.Millisecond
	if floor := p.clock.Modeled(2 * time.Millisecond); floor > interval {
		interval = floor
	}
	t := p.clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-stop:
			return
		case <-t.C:
		}
		for _, seg := range p.store.Segments() {
			select {
			case <-p.stop:
				return
			case <-stop:
				return
			default:
			}
			// Best effort: segments with open shadows or mid-transfer
			// version races are retried on the next sweep.
			p.drainSegment(seg)
		}
	}
}

// drainSegment evacuates one committed segment. The destination is chosen
// like a migration destination — live, not draining, not already a replica
// site. When every eligible node already holds the segment (small cluster,
// high replication degree) it "migrates" to an existing owner: the owner
// confirms it has the current version through the same replicate path, and
// only then is the surplus local copy erased — repair restores the
// replication degree later if capacity allows.
func (p *Provider) drainSegment(seg ids.SegID) error {
	st := p.store.Stat(seg)
	if !st.Present || st.HasShadow {
		return fmt.Errorf("provider %s: drain %s: busy or gone", p.id, seg.Short())
	}
	owners := p.ownersOf(seg)
	dest, err := p.chooseDest(st.Size, 0.5, owners, true)
	if err != nil {
		// No fresh site available; hand the copy to an existing owner.
		for _, o := range owners {
			if o.Node != p.id && o.Node != "" && p.members.IsLive(o.Node) {
				dest = o.Node
				break
			}
		}
		if dest == "" {
			return fmt.Errorf("provider %s: drain %s: no destination", p.id, seg.Short())
		}
	}
	return p.handOff(seg, dest, reasonDrain)
}
