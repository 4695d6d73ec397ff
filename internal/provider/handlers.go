package provider

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/segstore"
	"repro/internal/wire"
)

// handler adapts a Provider to transport.Handler without exporting the
// methods on Provider itself.
type handler Provider

func (h *handler) p() *Provider { return (*Provider)(h) }

// HandleCall implements transport.Handler.
func (h *handler) HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error) {
	p := h.p()
	switch m := req.(type) {
	case wire.SegRead:
		return p.handleRead(from, m), nil
	case wire.SegCreate:
		return p.handleCreate(from, m), nil
	case wire.SegShadow:
		return p.handleShadow(m), nil
	case wire.SegWrite:
		return p.handleWrite(from, m), nil
	case wire.SegShadowRead:
		return p.handleShadowRead(m), nil
	case wire.SegRenew:
		p.charge()
		return genResp(p.store.Renew(m.Owner, m.Seg, time.Duration(m.TTLSec*float64(time.Second)))), nil
	case wire.SegDelete:
		p.charge()
		err := p.store.Delete(m.Seg)
		if err == nil {
			p.announce(m.Seg, true, false)
		}
		return genResp(err), nil
	case wire.SegPin:
		p.charge()
		if m.Unpin {
			return genResp(p.store.UnpinVersion(m.Seg, m.Version)), nil
		}
		return genResp(p.store.PinVersion(m.Seg, m.Version)), nil
	case wire.SegFetch:
		return p.handleFetch(m), nil
	case wire.Prepare2PC:
		return p.handlePrepare(m), nil
	case wire.Commit2PC:
		return p.handleCommit(m), nil
	case wire.Abort2PC:
		return p.handleAbort(m), nil
	case wire.LocRefresh:
		p.charge()
		p.table.Refresh(m.From, m.Entries)
		return wire.GenericResp{OK: true}, nil
	case wire.LocUpdate:
		p.charge()
		p.recordUpdate(m.From, m.Entry, m.Removed)
		return wire.GenericResp{OK: true}, nil
	case wire.LocQuery:
		p.charge()
		owners := p.table.Owners(m.Seg)
		if len(owners) > 0 {
			p.pm.locHits.Inc()
		} else {
			p.pm.locMisses.Inc()
		}
		return wire.LocQueryResp{OK: len(owners) > 0, Owners: owners}, nil
	case wire.SyncNotify:
		return p.handleSync(m), nil
	case wire.ReplicateNotify:
		return p.handleReplicate(m), nil
	case wire.AdminDrain:
		if m.Node != "" && m.Node != p.id {
			return wire.GenericResp{Err: fmt.Sprintf("provider %s: drain addressed to %s", p.id, m.Node)}, nil
		}
		return genResp(p.Drain(m.Abort)), nil
	case wire.AdminStatus:
		if m.Node != "" && m.Node != p.id {
			return wire.AdminStatusResp{Err: fmt.Sprintf("provider %s: status addressed to %s", p.id, m.Node)}, nil
		}
		return p.AdminState(), nil
	case wire.AdminRetire:
		if m.Node != "" && m.Node != p.id {
			return wire.GenericResp{Err: fmt.Sprintf("provider %s: retire addressed to %s", p.id, m.Node)}, nil
		}
		return genResp(p.Retire()), nil
	default:
		return nil, fmt.Errorf("provider %s: unknown request %T", p.id, req)
	}
}

// HandleCast implements transport.Handler: heartbeats feed membership, and
// multicast location probes (the backup scheme, §3.4.2) are answered with a
// unicast response when this node owns the segment.
func (h *handler) HandleCast(from wire.NodeID, msg any) {
	p := h.p()
	switch m := msg.(type) {
	case wire.Heartbeat:
		p.members.ObserveHeartbeat(m)
	case wire.LocProbe:
		st := p.store.Stat(m.Seg)
		if !st.Present {
			return
		}
		resp := wire.LocProbeResp{Seg: m.Seg, Nonce: m.Nonce, Owner: p.id, Version: st.Version}
		p.spawn(func() { p.call(m.Asker, resp) })
	}
}

func genResp(err error) wire.GenericResp {
	if err != nil {
		return wire.GenericResp{Err: err.Error()}
	}
	return wire.GenericResp{OK: true}
}

// handleRead serves segment data when this node owns the segment. When it
// cannot serve — it is only the home host, holds another version, or its
// copy fails verification — it redirects to the other owners it knows as
// home host; otherwise it reports failure so the client can fall back to
// the multicast probe.
func (p *Provider) handleRead(from wire.NodeID, m wire.SegRead) wire.SegReadResp {
	p.charge()
	data, ver, sum, err := p.store.ReadSum(m.Seg, m.Version, m.Offset, m.Length)
	if err == nil {
		p.store.RecordAccess(m.Seg, from, int64(len(data)))
		// Sum covers the served slice, from the pass that verified it against
		// the commit-time block sums, so the client can verify end to end.
		return wire.SegReadResp{OK: true, Version: ver, Data: data, EOF: int64(len(data)) < m.Length, Sum: sum}
	}
	others := slices.DeleteFunc(p.table.Owners(m.Seg), func(o wire.OwnerInfo) bool { return o.Node == p.id })
	if len(others) > 0 {
		return wire.SegReadResp{OK: true, Redirect: true, Owners: others}
	}
	return wire.SegReadResp{Err: err.Error()}
}

// handleCreate materializes a new segment placed on this node. m.Data is
// lent (transport.Handler): Create and Install each keep a copy.
func (p *Provider) handleCreate(from wire.NodeID, m wire.SegCreate) wire.SegCreateResp {
	p.charge()
	ver := m.Version
	if ver == 0 {
		ver = 1
	}
	var err error
	if ver == 1 {
		err = p.store.Create(m.Seg, m.Data, m.ReplDeg, m.LocalityThreshold, m.Direct)
	} else {
		err = p.store.Install(m.Seg, ver, m.Data, nil, m.ReplDeg, m.LocalityThreshold)
	}
	if err != nil {
		return wire.SegCreateResp{Err: err.Error()}
	}
	p.store.RecordAccess(m.Seg, from, int64(len(m.Data)))
	p.announce(m.Seg, false, false)
	return wire.SegCreateResp{OK: true}
}

// handleShadow opens a session's shadow, or with m.Prepare replaces its
// content and prepares it. m.Data is lent (transport.Handler):
// ReplaceAndPrepare copies it into the shadow's extent.
func (p *Provider) handleShadow(m wire.SegShadow) wire.SegShadowResp {
	p.charge()
	replDeg := m.ReplDeg
	if replDeg <= 0 {
		replDeg = 1
	}
	ttl := time.Duration(m.TTLSec * float64(time.Second))
	if m.Prepare {
		// The index leg of a commit: shadow, whole content and phase one in
		// one request, counted as the prepare it replaces.
		p.pm.prepare2PC.Inc()
		start := p.clock.Now()
		defer func() { p.pm.prepareLat.ObserveDuration(p.clock.Now() - start) }()
		planned, err := p.store.ReplaceAndPrepare(m.Owner, m.Seg, m.BaseVer, m.Data, ttl, replDeg, m.LocalityThreshold)
		if err != nil {
			return wire.SegShadowResp{Err: err.Error()}
		}
		return wire.SegShadowResp{OK: true, NewVer: planned, Size: int64(len(m.Data))}
	}
	created, size, err := p.store.ShadowSized(m.Owner, m.Seg, m.BaseVer, m.SizeHint, ttl, replDeg, m.LocalityThreshold)
	if err != nil {
		return wire.SegShadowResp{Err: err.Error()}
	}
	return wire.SegShadowResp{OK: true, Size: size, Created: created}
}

// handleWrite applies one piece of a session's writes. m.Data is lent
// (transport.Handler; over TCP it is the request frame itself): WriteShadow
// copies it into the shadow's extent, WriteDirect into the version, and
// nothing else keeps it.
func (p *Provider) handleWrite(from wire.NodeID, m wire.SegWrite) wire.SegWriteResp {
	p.charge()
	if m.Direct {
		if err := p.store.WriteDirect(m.Seg, m.Offset, m.Data); err != nil {
			return wire.SegWriteResp{Err: err.Error()}
		}
		p.store.RecordAccess(m.Seg, from, int64(len(m.Data)))
		return wire.SegWriteResp{OK: true, N: len(m.Data)}
	}
	n, err := p.store.WriteShadow(m.Owner, m.Seg, m.Offset, m.Data)
	if err != nil {
		return wire.SegWriteResp{Err: err.Error()}
	}
	p.store.RecordAccess(m.Seg, from, int64(n))
	return wire.SegWriteResp{OK: true, N: n}
}

func (p *Provider) handleShadowRead(m wire.SegShadowRead) wire.SegReadResp {
	p.charge()
	data, err := p.store.ReadShadow(m.Owner, m.Seg, m.Offset, m.Length)
	if err != nil {
		return wire.SegReadResp{Err: err.Error()}
	}
	return wire.SegReadResp{OK: true, Data: data, EOF: int64(len(data)) < m.Length}
}

// handleFetch serves a segment version, whole or as the changes since the
// asker's HaveVer (Store.Fetch decides). A client's index fetch comes to the
// home host first (paper §3.7.2: the home host of a small segment is usually
// its owner), so the answer always carries the location table's owners:
// beside the payload when this node holds the version, in place of it when
// it does not.
func (p *Provider) handleFetch(m wire.SegFetch) wire.SegFetchResp {
	p.charge()
	r, err := p.store.Fetch(m.Seg, m.Version, m.HaveVer)
	owners := p.table.Owners(m.Seg)
	if err != nil {
		// Not here, not at that version, or not intact: the owners this node
		// knows of (as home host) go back as a redirect, never with OK set —
		// a puller installs whatever an OK response carries.
		return wire.SegFetchResp{Err: err.Error(), Owners: owners}
	}
	self := false
	for _, o := range owners {
		self = self || o.Node == p.id
	}
	if !self {
		owners = append([]wire.OwnerInfo{{Node: p.id, Version: r.Version}}, owners...)
	}
	r.OK, r.Owners = true, owners
	return r
}

func (p *Provider) handlePrepare(m wire.Prepare2PC) wire.Prepare2PCResp {
	p.charge()
	p.pm.prepare2PC.Inc()
	start := p.clock.Now()
	defer func() { p.pm.prepareLat.ObserveDuration(p.clock.Now() - start) }()
	resp := wire.Prepare2PCResp{OK: true}
	for i, seg := range m.Segs {
		ver, size, err := p.store.Prepare(m.Owner, seg)
		if err != nil {
			// Roll back the segments prepared so far in this request.
			for _, done := range m.Segs[:i] {
				p.store.AbortPrepared(m.Owner, done)
			}
			return wire.Prepare2PCResp{Err: err.Error()}
		}
		resp.PlannedVers = append(resp.PlannedVers, ver)
		resp.Sizes = append(resp.Sizes, size)
	}
	return resp
}

func (p *Provider) handleCommit(m wire.Commit2PC) wire.GenericResp {
	p.charge()
	p.pm.commit2PC.Inc()
	start := p.clock.Now()
	defer func() { p.pm.commitLat.ObserveDuration(p.clock.Now() - start) }()
	for i, seg := range m.Segs {
		if _, _, err := p.store.CommitPrepared(m.Owner, seg); err != nil {
			// Idempotent retry: when the shadow is gone but the segment has
			// already reached the planned version, an earlier attempt's
			// commit landed and only its response was lost — acknowledge.
			if i < len(m.Planned) && m.Planned[i] != 0 &&
				(errors.Is(err, segstore.ErrNoShadow) || errors.Is(err, segstore.ErrNotFound) || errors.Is(err, segstore.ErrUnprepared)) &&
				p.store.Stat(seg).Version >= m.Planned[i] {
				continue
			}
			return wire.GenericResp{Err: fmt.Sprintf("commit %s: %v", seg.Short(), err)}
		}
		// Fast-path location update: the segment's version advanced
		// (paper §3.4.1 event 4, Figure 6 step 10).
		p.announce(seg, false, false)
	}
	return wire.GenericResp{OK: true}
}

func (p *Provider) handleAbort(m wire.Abort2PC) wire.GenericResp {
	p.charge()
	p.pm.abort2PC.Inc()
	for _, seg := range m.Segs {
		p.store.AbortPrepared(m.Owner, seg)
	}
	return wire.GenericResp{OK: true}
}

// handleSync brings a stale local replica up to date (lazy update
// propagation, §3.6). A node that no longer holds the segment stays that way.
func (p *Provider) handleSync(m wire.SyncNotify) wire.GenericResp {
	p.charge()
	if !p.store.Stat(m.Seg).Present {
		return wire.GenericResp{OK: true}
	}
	return p.pull(transfer{seg: m.Seg, want: m.Version, source: m.Source, reason: reasonSync})
}

// handleReplicate makes this node a new replica site.
func (p *Provider) handleReplicate(m wire.ReplicateNotify) wire.GenericResp {
	p.charge()
	return p.pull(transfer{seg: m.Seg, want: m.Version, source: m.Source, replDeg: m.ReplDeg,
		locThresh: m.LocalityThreshold, handoff: m.Handoff, reason: reasonReplicate})
}
