// Package proxy implements Sorrento's stateless gateway tier. A Proxy
// terminates the thin client protocol (wire.PRead/PWrite/PCommit/...:
// path-and-offset requests with no membership, placement, or 2PC knowledge)
// and speaks the full Sorrento protocol to providers through an embedded
// core.Client — so every retry, read-failover, and two-phase-commit
// hardening in core is reused unchanged. The paper's clients cap deployment
// at thousands of protocol-aware machines; a gateway tier lets millions of
// dumb connections share a handful of protocol-aware nodes.
//
// A proxy keeps only soft state: open write sessions (an uncommitted shadow
// handle per client session) and a small TTL cache of read handles that
// coalesces concurrent reads of the same file. Nothing a proxy holds is
// needed to recover acked data — a commit is acked only after the 2PC
// pipeline made it durable on providers — so N proxies run behind any load
// balancer and a killed proxy loses nothing a client cannot redo by
// reconnecting and rewriting its uncommitted session.
package proxy

import (
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes a proxy.
type Config struct {
	// Client configures the embedded full-protocol client (namespace node,
	// retry policy, membership tuning, observability). Required:
	// Client.Namespace.
	Client core.Config
	// SessionTTL expires write sessions idle this long (modeled time); the
	// uncommitted shadow state is dropped and the thin client must rewrite.
	// Default 5 minutes.
	SessionTTL time.Duration
	// ReadTTL bounds how long a cached read handle serves reads before the
	// proxy re-resolves the file (close-to-open staleness through other
	// proxies). Default 2 seconds.
	ReadTTL time.Duration
	// DefaultAttrs are the attributes for files created through the thin
	// protocol (PWrite.ReplDeg > 0 overrides the replication degree).
	// Zero value means wire.DefaultAttrs.
	DefaultAttrs wire.FileAttrs
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.ReadTTL <= 0 {
		c.ReadTTL = 2 * time.Second
	}
	if c.DefaultAttrs.ReplDeg == 0 {
		c.DefaultAttrs = wire.DefaultAttrs()
	}
	return c
}

// Proxy is one stateless gateway node.
type Proxy struct {
	name  string
	clock *simtime.Clock
	cfg   Config
	cl    *core.Client

	mu       sync.Mutex
	sessions map[sessKey]*session
	reads    map[string]*readHandle
	closed   bool

	requests atomic.Uint64
	errors   atomic.Uint64

	m proxyMetrics

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type sessKey struct{ sess, path string }

// session is one thin client's open write session: soft state only.
type session struct {
	mu   sync.Mutex // serializes this session's writes; sessions are parallel
	f    *core.File
	last atomic.Int64 // modeled nanos of last use
}

// readHandle is a cached read-only file handle shared by concurrent PReads
// of the same path (read coalescing: one open, one index fetch, shared
// owner cache). ready gates waiters on the singleflight open.
type readHandle struct {
	ready  chan struct{}
	f      *core.File
	err    error
	opened time.Duration // modeled time of open, for ReadTTL
}

// proxyMetrics holds the per-RPC latency histograms and counters of the
// thin-protocol hot path. Nil handles no-op when observability is off.
type proxyMetrics struct {
	read, write, commit, stat, admin *obs.Histogram
	coalesced                        *obs.Counter
}

// New joins the network as node `name` and starts serving the thin
// protocol on that endpoint. The embedded core client owns the endpoint;
// the proxy installs itself as its request handler, so one proxy occupies
// exactly one node identity.
func New(name string, clock *simtime.Clock, network transport.Network, cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	cl, err := core.NewClient(name, clock, network, cfg.Client)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		name:     name,
		clock:    clock,
		cfg:      cfg,
		cl:       cl,
		sessions: make(map[sessKey]*session),
		reads:    make(map[string]*readHandle),
		stop:     make(chan struct{}),
	}
	if reg := cfg.Client.Obs.Reg(); reg != nil {
		node := obs.L("node", name)
		h := func(op string) *obs.Histogram {
			return reg.Histogram("sorrento_proxy_request_seconds", nil, node, obs.L("op", op))
		}
		p.m = proxyMetrics{
			read:      h("read"),
			write:     h("write"),
			commit:    h("commit"),
			stat:      h("stat"),
			admin:     h("admin"),
			coalesced: reg.Counter("sorrento_proxy_reads_coalesced_total", node),
		}
		reg.GaugeFunc("sorrento_proxy_sessions", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.sessions))
		}, node)
	}
	cl.SetRequestHandler(pxHandler{p})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sweep()
	}()
	return p, nil
}

// ID returns the proxy's node identity.
func (p *Proxy) ID() wire.NodeID { return wire.NodeID(p.name) }

// Client exposes the embedded full-protocol client (tests, harness).
func (p *Proxy) Client() *core.Client { return p.cl }

// Close shuts the proxy down gracefully: open sessions are aborted (their
// provider-side shadows dropped) and the endpoint leaves the network.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.mu.Lock()
	p.closed = true
	sessions := p.sessions
	p.sessions = map[sessKey]*session{}
	p.reads = map[string]*readHandle{}
	p.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.f != nil {
			s.f.Drop()
		}
		s.mu.Unlock()
	}
	p.cl.Close()
}

// Kill simulates a crash: the endpoint goes silent immediately and all
// soft state is abandoned in place. Provider-side shadows of open sessions
// are left to expire via their TTL; acked commits are unaffected.
func (p *Proxy) Kill() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cl.Close()
	p.wg.Wait()
}

// sweep expires idle write sessions and stale read handles.
func (p *Proxy) sweep() {
	interval := p.cfg.SessionTTL / 4
	if interval <= 0 {
		interval = time.Minute
	}
	if floor := p.clock.Modeled(10 * time.Millisecond); floor > interval {
		interval = floor
	}
	t := p.clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		now := p.clock.Now()
		var drop []*session
		p.mu.Lock()
		for k, s := range p.sessions {
			if now-time.Duration(s.last.Load()) > p.cfg.SessionTTL {
				delete(p.sessions, k)
				drop = append(drop, s)
			}
		}
		for path, rh := range p.reads {
			select {
			case <-rh.ready:
				if now-rh.opened > p.cfg.ReadTTL {
					delete(p.reads, path)
				}
			default: // open still in flight
			}
		}
		p.mu.Unlock()
		for _, s := range drop {
			s.mu.Lock()
			if s.f != nil {
				s.f.Drop()
			}
			s.mu.Unlock()
		}
	}
}

// pxHandler dispatches the thin protocol plus the proxy's admin surface on
// the embedded client's endpoint (installed via SetRequestHandler).
type pxHandler struct{ p *Proxy }

func (h pxHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	p := h.p
	switch m := req.(type) {
	case wire.PRead:
		return p.timed(p.m.read, func() any { return p.handleRead(m) }), nil
	case wire.PWrite:
		return p.timed(p.m.write, func() any { return p.handleWrite(m) }), nil
	case wire.PCommit:
		return p.timed(p.m.commit, func() any { return p.handleCommit(m) }), nil
	case wire.PAbort:
		return p.timed(p.m.commit, func() any { return p.handleAbort(m) }), nil
	case wire.PStat:
		return p.timed(p.m.stat, func() any { return p.handleStat(m) }), nil
	case wire.PMkdir:
		return p.timed(p.m.stat, func() any { return p.genResp(p.cl.Mkdir(m.Path)) }), nil
	case wire.PRemove:
		return p.timed(p.m.stat, func() any { return p.handleRemove(m) }), nil
	case wire.ProxyStatus:
		return p.timed(p.m.admin, func() any { return p.status() }), nil
	default:
		return nil, transport.ErrNoHandler
	}
}

func (pxHandler) HandleCast(wire.NodeID, any) {}

// timed wraps one request with the per-op latency histogram and the
// request counter.
func (p *Proxy) timed(h *obs.Histogram, fn func() any) any {
	p.requests.Add(1)
	start := p.clock.Now()
	resp := fn()
	h.ObserveDuration(p.clock.Now() - start)
	return resp
}

func (p *Proxy) genResp(err error) wire.GenericResp {
	if err != nil {
		p.errors.Add(1)
		return wire.GenericResp{Err: err.Error()}
	}
	return wire.GenericResp{OK: true}
}

func (p *Proxy) status() wire.ProxyStatusResp {
	p.mu.Lock()
	sessions, reads := len(p.sessions), len(p.reads)
	p.mu.Unlock()
	return wire.ProxyStatusResp{
		OK:        true,
		Node:      wire.NodeID(p.name),
		Sessions:  sessions,
		Reads:     reads,
		Requests:  p.requests.Load(),
		Errors:    p.errors.Load(),
		Providers: p.cl.Members().Len(),
	}
}

// ---------------------------------------------------------------------------
// Reads

func (p *Proxy) handleRead(m wire.PRead) wire.PReadResp {
	if m.Length < 0 || m.Length > 16<<20 {
		p.errors.Add(1)
		return wire.PReadResp{Err: "proxy: read length out of range"}
	}
	if m.Version != 0 {
		// Pinned-version reads are rare; serve them uncached.
		f, err := p.cl.OpenVersion(m.Path, m.Version)
		if err != nil {
			p.errors.Add(1)
			return wire.PReadResp{Err: err.Error()}
		}
		defer f.Drop()
		return p.readFrom(f, m)
	}
	f, err := p.readHandleFor(m.Path)
	if err != nil {
		p.errors.Add(1)
		return wire.PReadResp{Err: err.Error()}
	}
	resp := p.readFrom(f, m)
	if !resp.OK {
		// The cached handle may be stale (file rewritten, old version
		// reclaimed, owner moved by a drain). Re-resolve once and retry.
		p.invalidate(m.Path)
		f, err = p.readHandleFor(m.Path)
		if err != nil {
			p.errors.Add(1)
			return wire.PReadResp{Err: err.Error()}
		}
		resp = p.readFrom(f, m)
		if !resp.OK {
			p.errors.Add(1)
		}
	}
	return resp
}

func (p *Proxy) readFrom(f *core.File, m wire.PRead) wire.PReadResp {
	buf := make([]byte, m.Length)
	n, err := f.ReadAt(buf, m.Offset)
	if err != nil && err != io.EOF {
		return wire.PReadResp{Err: err.Error()}
	}
	return wire.PReadResp{OK: true, Version: f.Version(), Data: buf[:n], EOF: err == io.EOF}
}

// readHandleFor returns the path's cached read handle, opening it once for
// all concurrent requesters (read coalescing).
func (p *Proxy) readHandleFor(path string) (*core.File, error) {
	p.mu.Lock()
	rh, ok := p.reads[path]
	if ok {
		select {
		case <-rh.ready:
			if rh.err == nil && p.clock.Now()-rh.opened <= p.cfg.ReadTTL {
				p.mu.Unlock()
				p.m.coalesced.Inc()
				return rh.f, nil
			}
			delete(p.reads, path) // expired or failed; reopen below
			ok = false
		default:
			// Open in flight: wait for it outside the lock.
		}
	}
	if !ok {
		rh = &readHandle{ready: make(chan struct{})}
		p.reads[path] = rh
		p.mu.Unlock()
		rh.f, rh.err = p.cl.Open(path)
		rh.opened = p.clock.Now()
		close(rh.ready)
		if rh.err != nil {
			p.invalidate(path)
		}
		return rh.f, rh.err
	}
	p.mu.Unlock()
	<-rh.ready
	if rh.err != nil {
		return nil, rh.err
	}
	p.m.coalesced.Inc()
	return rh.f, nil
}

// invalidate drops the cached read handle for path (after commits and
// removes through this proxy, and on read failures).
func (p *Proxy) invalidate(path string) {
	p.mu.Lock()
	delete(p.reads, path)
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Writes

// handleWrite applies a thin client's write to its session. m.Data is lent
// (transport.Handler): WriteAt copies it into the session's journal
// (journalWrite) or the attached payload (growAttachedLocked), and every
// SegWrite it sends with it is encoded, or copied by the provider, before
// WriteAt returns.
func (p *Proxy) handleWrite(m wire.PWrite) wire.PWriteResp {
	s, err := p.sessionFor(m)
	if err != nil {
		p.errors.Add(1)
		return wire.PWriteResp{Err: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		p.errors.Add(1)
		return wire.PWriteResp{Err: "proxy: session closed"}
	}
	n, err := s.f.WriteAt(m.Data, m.Offset)
	s.last.Store(int64(p.clock.Now()))
	if err != nil {
		p.errors.Add(1)
		return wire.PWriteResp{Err: err.Error()}
	}
	return wire.PWriteResp{OK: true, N: n}
}

// sessionFor returns the write session for (sess, path), lazily opening it
// on first use. The open happens under the session's own lock so racing
// first writes of one session cannot double-create the file.
func (p *Proxy) sessionFor(m wire.PWrite) (*session, error) {
	k := sessKey{m.Sess, m.Path}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, core.ErrClosed
	}
	s, ok := p.sessions[k]
	if !ok {
		s = &session{}
		s.last.Store(int64(p.clock.Now()))
		p.sessions[k] = s
	}
	p.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		return s, nil
	}
	var (
		f   *core.File
		err error
	)
	if m.Create {
		attrs := p.cfg.DefaultAttrs
		if m.ReplDeg > 0 {
			attrs.ReplDeg = m.ReplDeg
		}
		f, err = p.cl.Create(m.Path, attrs)
		if err != nil && strings.Contains(err.Error(), "exists") {
			// Another session (possibly through another proxy) created it
			// first; fall back to a write session on the existing file.
			f, err = p.cl.OpenWrite(m.Path)
		}
	} else {
		f, err = p.cl.OpenWrite(m.Path)
	}
	if err != nil {
		p.mu.Lock()
		delete(p.sessions, k)
		p.mu.Unlock()
		return nil, err
	}
	s.f = f
	return s, nil
}

func (p *Proxy) takeSession(sess, path string) *session {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := sessKey{sess, path}
	s := p.sessions[k]
	delete(p.sessions, k)
	return s
}

func (p *Proxy) handleCommit(m wire.PCommit) wire.PCommitResp {
	s := p.takeSession(m.Sess, m.Path)
	if s == nil {
		p.errors.Add(1)
		return wire.PCommitResp{Err: "proxy: unknown session " + m.Sess + " for " + m.Path}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		p.errors.Add(1)
		return wire.PCommitResp{Err: "proxy: session closed"}
	}
	err := s.f.Commit(core.CommitOptions{})
	if err != nil {
		// The session is not reusable after a failed commit: drop the
		// shadows so the thin client can start a fresh session and rewrite.
		s.f.Drop()
		s.f = nil
		p.errors.Add(1)
		return wire.PCommitResp{Err: err.Error()}
	}
	resp := wire.PCommitResp{OK: true, Version: s.f.Version(), Size: s.f.Size()}
	s.f.Drop() // committed; release the handle without a second commit
	s.f = nil
	p.invalidate(m.Path)
	return resp
}

func (p *Proxy) handleAbort(m wire.PAbort) wire.GenericResp {
	s := p.takeSession(m.Sess, m.Path)
	if s == nil {
		return wire.GenericResp{OK: true} // nothing to abort
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.f.Drop()
		s.f = nil
	}
	return wire.GenericResp{OK: true}
}

// ---------------------------------------------------------------------------
// Namespace passthrough

func (p *Proxy) handleStat(m wire.PStat) wire.PStatResp {
	entry, err := p.cl.Stat(m.Path)
	if err != nil {
		p.errors.Add(1)
		return wire.PStatResp{Err: err.Error()}
	}
	return wire.PStatResp{OK: true, Entry: entry}
}

func (p *Proxy) handleRemove(m wire.PRemove) wire.GenericResp {
	err := p.cl.Remove(m.Path)
	if err == nil {
		p.invalidate(m.Path)
	}
	return p.genResp(err)
}
