// Package core is Sorrento's client library — the programming interface
// applications use to access a volume (paper §2.3). It provides a
// UNIX-flavored file API (Create/Open/ReadAt/WriteAt/Commit/Close) on top
// of the versioned-consistency protocol: copy-on-write shadow segments,
// two-phase commit across providers, commit-window arbitration at the
// namespace server, and the extended per-file knobs (replication degree,
// layout mode, placement α, locality-driven policy).
//
// A Client holds the complete view of the live providers via the membership
// manager, so it resolves every SegID's home host locally and falls back to
// the multicast probe only when the soft state is stale (§3.4.2).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/layout"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrConflict reports a commit rejected because another process
	// committed a newer version first (paper §3.5).
	ErrConflict = errors.New("core: update conflict")
	// ErrNotFound reports a missing path.
	ErrNotFound = errors.New("core: file not found")
	// ErrReadOnly reports a write on a read-only handle.
	ErrReadOnly = errors.New("core: file opened read-only")
	// ErrClosed reports use of a closed handle.
	ErrClosed = errors.New("core: file closed")
	// ErrNoProviders reports an empty live provider set.
	ErrNoProviders = errors.New("core: no live storage providers")
	// ErrUnlocatable reports a segment whose owners could not be found even
	// via the multicast backup scheme.
	ErrUnlocatable = errors.New("core: segment not locatable")
)

// Config tunes a client.
type Config struct {
	// Namespace is the namespace server's node ID.
	Namespace wire.NodeID
	// Host co-locates the client on an existing provider node (shares its
	// NIC; reads/writes to that provider are local). Empty means the client
	// runs on its own machine.
	Host wire.NodeID
	// ShadowTTL is the expiration granted to shadow copies.
	ShadowTTL time.Duration
	// ProbeTimeout bounds the multicast backup location scheme.
	ProbeTimeout time.Duration
	// CallTimeout bounds individual RPCs.
	CallTimeout time.Duration
	// Sizing overrides the segment sizing formula (zero value = paper's).
	Sizing layout.Sizing
	// Membership tunes the client's provider view.
	Membership membership.Config
	// Seed seeds placement decisions and retry jitter.
	Seed int64
	// Retry governs transient-failure handling: per-RPC deadlines with
	// exponential, seeded-jitter backoff on the modeled clock, read
	// failover across replica sites, and 2PC abort-and-retry.
	Retry RetryPolicy
	// MaxCommitJournal caps the bytes of written data the client keeps
	// per write session to make 2PC retryable: when a participant dies
	// mid-commit, journaled writes are replayed onto freshly placed
	// shadows. Sessions that exceed the cap fall back to fail-fast
	// commits. Default 16 MiB.
	MaxCommitJournal int64
	// MaxParallelIO bounds the client's concurrent piece RPCs per file
	// operation: striped reads/writes, shadow creation, commit rounds and
	// segment deletion all fan out on at most this many workers. The
	// default (8) matches the paper's stripe width across an 8-provider
	// group; 1 restores strictly sequential piece I/O.
	MaxParallelIO int
	// Obs enables client-side observability: commit latency/conflict
	// metrics, location-probe counts, heartbeat-gap tracking, and a root
	// span per commit so the transport's RPC spans attach under it. Nil
	// disables all of it.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.ShadowTTL <= 0 {
		c.ShadowTTL = 5 * time.Minute
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 60 * time.Second
	}
	if c.Sizing.Unit == 0 {
		c.Sizing = layout.DefaultSizing()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxParallelIO <= 0 {
		c.MaxParallelIO = 8
	}
	c.Retry = c.Retry.withDefaults()
	if c.MaxCommitJournal <= 0 {
		c.MaxCommitJournal = 16 << 20
	}
	return c
}

// Client is one application's attachment to a Sorrento volume.
type Client struct {
	name    string
	clock   *simtime.Clock
	cfg     Config
	ep      transport.Endpoint
	members *membership.Manager
	sel     *placement.Selector

	sessSeq  atomic.Uint64
	nonceSeq atomic.Uint64

	retry *retrier

	// Metric handles, resolved once at construction (nil handles no-op).
	commitLat       *obs.Histogram
	commitsOK       *obs.Counter
	commitConflicts *obs.Counter
	probesSent      *obs.Counter
	retries         *obs.Counter
	failovers       *obs.Counter
	readMismatches  *obs.Counter
	commitRetries   *obs.Counter
	commitAborts    *obs.Counter

	mu     sync.Mutex
	probes map[uint64]chan wire.LocProbeResp

	// fallback, when set, receives every incoming call the client itself
	// does not handle. It lets a co-located service — the proxy gateway —
	// serve its own request protocol on the client's endpoint instead of
	// occupying a second node identity.
	fallback atomic.Pointer[transport.Handler]
}

// SetRequestHandler installs h as the fallback for incoming calls the
// client does not consume (everything but probe responses). Install before
// traffic arrives; passing nil removes the fallback.
func (c *Client) SetRequestHandler(h transport.Handler) {
	if h == nil {
		c.fallback.Store(nil)
		return
	}
	c.fallback.Store(&h)
}

// Name returns the node name the client joined the network as.
func (c *Client) Name() string { return c.name }

// Clock returns the client's modeled clock.
func (c *Client) Clock() *simtime.Clock { return c.clock }

// NewClient joins the network as node `name` and begins tracking provider
// membership.
func NewClient(name string, clock *simtime.Clock, network transport.Network, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Namespace == "" {
		return nil, fmt.Errorf("core: Config.Namespace required")
	}
	c := &Client{
		name:    name,
		clock:   clock,
		cfg:     cfg,
		members: membership.NewManager(clock, cfg.Membership),
		sel:     placement.NewSelector(cfg.Seed),
		retry:   newRetrier(cfg.Seed),
		probes:  make(map[uint64]chan wire.LocProbeResp),
	}
	if reg := cfg.Obs.Reg(); reg != nil {
		node := obs.L("node", name)
		c.commitLat = reg.Histogram("sorrento_client_commit_seconds", nil, node)
		c.commitsOK = reg.Counter("sorrento_client_commits_total", node)
		c.commitConflicts = reg.Counter("sorrento_client_commit_conflicts_total", node)
		c.probesSent = reg.Counter("sorrento_client_probes_total", node)
		c.retries = reg.Counter("sorrento_client_retries_total", node)
		c.failovers = reg.Counter("sorrento_client_failovers_total", node)
		c.readMismatches = reg.Counter("sorrento_integrity_read_mismatch_total", node)
		c.commitRetries = reg.Counter("sorrento_client_commit_retries_total", node)
		c.commitAborts = reg.Counter("sorrento_client_commit_aborts_total", node)
		c.members.Instrument(reg, name)
	}
	var (
		ep  transport.Endpoint
		err error
	)
	if cfg.Host != "" {
		ep, err = network.JoinAt(wire.NodeID(name), cfg.Host, clientHandler{c})
	} else {
		ep, err = network.Join(wire.NodeID(name), clientHandler{c})
	}
	if err != nil {
		return nil, err
	}
	c.ep = ep
	c.members.Start()
	return c, nil
}

// Close detaches the client.
func (c *Client) Close() {
	c.members.Stop()
	c.ep.Close()
}

// Members exposes the client's provider view (used by experiments).
func (c *Client) Members() *membership.Manager { return c.members }

// clientHandler receives probe responses and heartbeats.
type clientHandler struct{ c *Client }

func (h clientHandler) HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error) {
	if pr, ok := req.(wire.LocProbeResp); ok {
		h.c.mu.Lock()
		ch := h.c.probes[pr.Nonce]
		h.c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- pr:
			default:
			}
		}
		return wire.GenericResp{OK: true}, nil
	}
	if fb := h.c.fallback.Load(); fb != nil {
		return (*fb).HandleCall(ctx, from, req)
	}
	return nil, transport.ErrNoHandler
}

func (h clientHandler) HandleCast(from wire.NodeID, msg any) {
	if hb, ok := msg.(wire.Heartbeat); ok {
		h.c.members.ObserveHeartbeat(hb)
		return
	}
	if fb := h.c.fallback.Load(); fb != nil {
		(*fb).HandleCast(from, msg)
	}
}

// call performs one RPC with the configured timeout.
func (c *Client) call(to wire.NodeID, req any) (any, error) {
	return c.callCtx(context.Background(), to, req)
}

// callCtx is call with a caller context, so operations that open a span
// (Commit) propagate it into the transport's per-RPC tracing.
func (c *Client) callCtx(ctx context.Context, to wire.NodeID, req any) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	return c.ep.Call(ctx, to, req)
}

func (c *Client) ns(req any) (any, error) { return c.call(c.cfg.Namespace, req) }

func (c *Client) nsCtx(ctx context.Context, req any) (any, error) {
	return c.callCtx(ctx, c.cfg.Namespace, req)
}

// parallelism is the fan-out width for piece-level RPCs.
func (c *Client) parallelism() int { return c.cfg.MaxParallelIO }

// WaitForProviders blocks until at least n providers are visible or the
// (modeled) timeout elapses.
func (c *Client) WaitForProviders(n int, timeout time.Duration) error {
	deadline := c.clock.Now() + timeout
	for c.members.Len() < n {
		if c.clock.Now() > deadline {
			return fmt.Errorf("core: only %d/%d providers visible", c.members.Len(), n)
		}
		c.clock.Sleep(100 * time.Millisecond)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Namespace operations

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	resp, err := c.ns(wire.NSMkdir{Path: path})
	return nsErr(resp, err)
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error {
	resp, err := c.ns(wire.NSRmdir{Path: path})
	return nsErr(resp, err)
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]wire.DirEntry, error) {
	resp, err := c.ns(wire.NSReadDir{Path: path})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(wire.NSReadDirResp)
	if !ok || !r.OK {
		return nil, fmt.Errorf("core: readdir %s: %s", path, r.Err)
	}
	return r.Entries, nil
}

// Stat resolves a path to its file entry.
func (c *Client) Stat(path string) (wire.FileEntry, error) {
	resp, err := c.ns(wire.NSLookup{Path: path})
	if err != nil {
		return wire.FileEntry{}, err
	}
	r, ok := resp.(wire.NSLookupResp)
	if !ok || !r.OK {
		return wire.FileEntry{}, ErrNotFound
	}
	return r.Entry, nil
}

func nsErr(resp any, err error) error {
	if err != nil {
		return err
	}
	if r, ok := resp.(wire.NSGenericResp); ok {
		if r.OK {
			return nil
		}
		return errors.New("core: " + r.Err)
	}
	return fmt.Errorf("core: unexpected namespace response %T", resp)
}

// AcquireLease takes the file's write-lock lease for this client, letting
// cooperating processes avoid commit conflicts (paper §3.5). It fails with
// the current holder's name when the lease is taken.
func (c *Client) AcquireLease(path string, ttl time.Duration) error {
	resp, err := c.ns(wire.NSLeaseAcquire{Path: path, Owner: c.name, TTLSec: ttl.Seconds()})
	if err != nil {
		return err
	}
	r, ok := resp.(wire.NSLeaseAcquireResp)
	if !ok {
		return fmt.Errorf("core: unexpected lease response %T", resp)
	}
	if !r.OK {
		return fmt.Errorf("core: lease on %s held by %s", path, r.Holder)
	}
	return nil
}

// ReleaseLease releases a lease held by this client.
func (c *Client) ReleaseLease(path string) error {
	resp, err := c.ns(wire.NSLeaseRelease{Path: path, Owner: c.name})
	return nsErr(resp, err)
}

// SegmentsOf returns the SegIDs of a committed file's data segments (the
// index segment excluded). Diagnostics and experiments use it to inspect
// physical placement.
func (c *Client) SegmentsOf(path string) ([]ids.SegID, error) {
	entry, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	if entry.Version == 0 {
		return nil, nil
	}
	idx, _, err := c.fetchIndex(entry)
	if err != nil {
		return nil, err
	}
	out := make([]ids.SegID, 0, len(idx.Segs))
	for _, ref := range idx.Segs {
		out = append(out, ref.ID)
	}
	return out, nil
}

// Remove unlinks a file and eagerly deletes all replicas of its segments
// (paper §4.1.1). The namespace goes first — its answer carries the entry —
// then the index is fetched for the data segments' names. Unlocatable
// segments are skipped; their location-table entries age out.
func (c *Client) Remove(path string) error {
	resp, err := c.ns(wire.NSRemove{Path: path})
	if err != nil {
		return err
	}
	r, ok := resp.(wire.NSRemoveResp)
	switch {
	case ok && r.NotFound:
		return ErrNotFound
	case !ok || !r.OK:
		return fmt.Errorf("core: remove %s: %s", path, r.Err)
	}
	entry := r.Entry
	if entry.Version == 0 {
		return nil // never committed: no segments exist
	}
	// The fetch that reads the index also says who holds it. Eager removal
	// (paper §4.1.1): every replica of every segment is deleted before
	// Remove returns, a segment's replicas one at a time — which is why
	// unlink latency grows with the replication degree in Figure 9.
	idx, indexOwners, _ := c.fetchIndex(entry)
	c.eachReplica(entry.FileID, entry.Version, idx, indexOwners, true, func(seg ids.SegID, _ uint64, node wire.NodeID) error {
		c.call(node, wire.SegDelete{Seg: seg})
		return nil
	})
	return nil
}

// eachReplica runs fn on every owner of every segment of one committed file
// version: the index segment, on the owners its fetch returned, and each
// data segment a commit has written. Segments go in parallel, one segment's
// owners one at a time. It returns every failure, and goes on past them.
// A version-blind caller (delete) takes the owners the home host lists,
// whatever their version, and probes only when it lists none; the home
// table often lags a fresh commit, and waiting for a current owner would
// probe every segment.
func (c *Client) eachReplica(fid ids.SegID, ver uint64, idx *layout.Index, indexOwners []wire.OwnerInfo, blind bool, fn func(seg ids.SegID, ver uint64, node wire.NodeID) error) error {
	refs := []layout.SegRef{{ID: fid, Version: ver}}
	if idx != nil {
		refs = append(refs, idx.Segs...)
	}
	errs := make([]error, len(refs))
	fanout(len(refs), c.parallelism(), func(i int) error {
		ref, owners := refs[i], indexOwners
		if ref.Version == 0 {
			return nil // never written: no provider holds it
		}
		if i > 0 || len(owners) == 0 {
			want := ref.Version
			if blind {
				want = 0
			}
			owners, errs[i] = c.ownersOf(ref.ID, want)
		}
		for _, o := range owners {
			if err := fn(ref.ID, ref.Version, o.Node); err != nil {
				errs[i] = err
			}
		}
		return nil
	})
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// Data location (paper §3.4)

// An attempt sends one request about a segment to one node. done stops the
// walk: the node served (err nil), or the request must not go to another
// owner (err set). owners is what the node said about who holds the segment:
// a home host's redirect, or the owners beside a fetched payload.
type attempt func(node wire.NodeID) (owners []wire.OwnerInfo, done bool, err error)

// walk is the client's one owner lookup. It runs do on owners of seg at
// version want or later until one is done, asking in this order:
//  1. f's cached owners (f may be nil);
//  2. the home host: do itself when the provider answers the request with a
//     redirect (SegRead, SegFetch: homeServes), else one LocQuery;
//  3. the owners the home host names;
//  4. the multicast probe for want (§3.4.2), and the owners it returns.
//
// An owner behind want is never tried: it cannot serve the version, and a
// shadow based on it would fork history (§3.5). Each node is tried once,
// co-located first, known-dead last; one whose request fails leaves f's
// cache. The walk returns the owner list it ended on, stale owners included,
// and caches it in f unless the cache already served.
func (c *Client) walk(f *File, seg ids.SegID, want uint64, homeServes bool, do attempt) ([]wire.OwnerInfo, error) {
	t := c.tries(f, seg, do)
	try := func(owners []wire.OwnerInfo) (bool, error) {
		var nodes []wire.NodeID
		for _, o := range orderOwners(owners, c.ep.Host()) {
			if o.Version >= want {
				nodes = append(nodes, o.Node)
			}
		}
		return t.each(nodes)
	}
	cached := f.cachedOwners(seg)
	if done, err := try(cached); done {
		return cached, err
	}
	var owners []wire.OwnerInfo
	if home := c.members.HomeOf(seg); home != "" && homeServes {
		named, done, err := t.run(home)
		if done {
			if err == nil {
				f.setOwners(seg, named)
			}
			return named, err
		}
		owners = named
	} else if home != "" {
		resp, err := c.call(home, wire.LocQuery{Seg: seg})
		c.noteDead(home, err)
		r, _ := resp.(wire.LocQueryResp)
		owners = r.Owners
	}
	done, err := try(owners)
	if !done {
		probed, perr := c.probe(seg, want)
		// A probe answer is the owner's own word; the home host's may lag.
		for _, o := range owners {
			if !slices.ContainsFunc(probed, func(p wire.OwnerInfo) bool { return p.Node == o.Node }) {
				probed = append(probed, o)
			}
		}
		owners = probed
		if done, err = try(owners); !done {
			return owners, cmp.Or(t.lastErr, perr, fmt.Errorf("%w: no owner of %s at v%d or later", ErrUnlocatable, seg.Short(), want))
		}
	}
	if err == nil {
		f.setOwners(seg, owners)
	}
	return owners, err
}

// tries sends one request about seg to nodes, each at most once, and keeps
// the books of a failover: a node whose request fails leaves f's owner cache
// (f may be nil) and is reported to the membership view, and a success after
// a failure counts as a failover.
type tries struct {
	c       *Client
	f       *File
	seg     ids.SegID
	do      attempt
	tried   map[wire.NodeID]bool
	lastErr error
}

func (c *Client) tries(f *File, seg ids.SegID, do attempt) *tries {
	return &tries{c: c, f: f, seg: seg, do: do, tried: make(map[wire.NodeID]bool)}
}

// run sends the request to node.
func (t *tries) run(node wire.NodeID) ([]wire.OwnerInfo, bool, error) {
	t.tried[node] = true
	named, done, err := t.do(node)
	if err != nil {
		t.lastErr = err
		t.f.dropOwner(t.seg, node)
		t.c.noteDead(node, err)
	} else if done && t.lastErr != nil {
		t.c.failovers.Inc()
	}
	return named, done, err
}

// each runs the request on the untried nodes in their order, live ones
// before known-dead ones, until one is done; it reports whether one was, and
// how.
func (t *tries) each(nodes []wire.NodeID) (bool, error) {
	var live, dead []wire.NodeID
	for _, n := range nodes {
		switch {
		case t.tried[n]:
		case t.c.members.IsLive(n):
			live = append(live, n)
		default:
			dead = append(dead, n)
		}
	}
	for _, n := range append(live, dead...) {
		if _, done, err := t.run(n); done {
			return true, err
		}
	}
	return false, nil
}

// ownersOf returns every owner of seg the walk learns on its way to one at
// version want or later, stale owners included: the list for callers that
// address all replicas (delete, pin, sync) rather than one.
func (c *Client) ownersOf(seg ids.SegID, want uint64) ([]wire.OwnerInfo, error) {
	return c.walk(nil, seg, want, false, func(wire.NodeID) ([]wire.OwnerInfo, bool, error) { return nil, true, nil })
}

// probe issues the multicast backup query (paper §3.4.2) and returns on the
// first answer at version want or later, together with the answers collected
// so far. Waiting for more would add a full think-time to every backup
// lookup; but an owner that is behind — a restarted replica, often the one
// co-located with the asker — answers first as readily as a current one, and
// returning on it alone would hide the replicas that can serve. A lookup whose
// every answer is behind costs one ProbeTimeout and returns what it has.
func (c *Client) probe(seg ids.SegID, want uint64) ([]wire.OwnerInfo, error) {
	nonce := c.nonceSeq.Add(1)
	ch := make(chan wire.LocProbeResp, 8)
	c.mu.Lock()
	c.probes[nonce] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.probes, nonce)
		c.mu.Unlock()
	}()
	c.probesSent.Inc()
	c.ep.Multicast(wire.LocProbe{Seg: seg, Asker: c.ep.ID(), Nonce: nonce})
	// At compressed time scales the modeled timeout can shrink below real
	// scheduling noise; floor it at ~50 ms of wall time.
	probeWait := c.cfg.ProbeTimeout
	if floor := c.clock.Modeled(50 * time.Millisecond); floor > probeWait {
		probeWait = floor
	}
	timeout := c.clock.After(probeWait)
	var owners []wire.OwnerInfo
	current := false
	for {
		select {
		case pr := <-ch:
			owners = append(owners, wire.OwnerInfo{Node: pr.Owner, Version: pr.Version})
			current = current || pr.Version >= want
			if current && len(ch) == 0 {
				return owners, nil // later answers are dropped
			}
		case <-timeout:
			if len(owners) == 0 {
				return nil, fmt.Errorf("%w: probe for %s got no answers", ErrUnlocatable, seg.Short())
			}
			return owners, nil
		}
	}
}

// place chooses a provider for a new segment per the file's policy.
func (c *Client) place(attrs wire.FileAttrs, segSize int64, home wire.NodeID, small bool, exclude map[wire.NodeID]bool) (wire.NodeID, error) {
	cands := placement.FromLoads(c.members.Loads())
	if len(cands) == 0 {
		return "", ErrNoProviders
	}
	switch attrs.Policy {
	case wire.PlaceRandom:
		return c.sel.ChooseUniform(cands, exclude)
	case wire.PlaceLocal:
		host := c.ep.Host()
		if host != wire.NodeID(c.name) && c.members.IsLive(host) && !exclude[host] {
			return host, nil
		}
		fallthrough
	default:
		return c.sel.Choose(cands, placement.Options{
			Alpha:        attrs.Alpha,
			SegSize:      segSize,
			Exclude:      exclude,
			Home:         home,
			SmallSegment: small,
		})
	}
}
