package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CommitOptions tune a commit.
type CommitOptions struct {
	// Sync waits until every replica of the committed segments has caught
	// up before returning (the synchronous-commitment option, paper §3.6).
	// The default lazy mode lets update propagation run in the background.
	Sync bool
}

// Commit atomically publishes the session's changes as the file's next
// version (paper §3.5, Figure 6): the namespace server approves the commit
// window (detecting conflicts by base version), the modified segments and
// the rewritten index segment commit via two-phase commitment, and the
// namespace records the new version.
func (f *File) Commit(opts CommitOptions) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if !f.writable {
		f.mu.Unlock()
		return ErrReadOnly
	}
	if f.attrs.VersioningOff {
		f.mu.Unlock()
		return nil // direct files have no versions to commit
	}
	if !f.indexDirty && len(f.dirty) == 0 && f.baseVer > 0 {
		f.mu.Unlock()
		return nil // nothing to publish
	}
	// A never-committed file publishes version 1 even when empty, so a
	// create/close pair leaves a committed (empty) file behind.

	// Snapshot the segments this commit touches (for the synchronous
	// propagation option).
	touched := make([]ids.SegID, 0, len(f.dirty)+1)
	for seg := range f.dirty {
		touched = append(touched, seg)
	}
	touched = append(touched, f.entry.FileID)
	f.mu.Unlock()

	// The commit protocol proper is what gets measured: a root span (every
	// RPC below it becomes a child span in the transport) and a whole-commit
	// latency histogram, with conflicts counted separately.
	ctx, sp := f.c.cfg.Obs.Tr().Start(context.Background(), f.c.name, "commit")
	start := f.c.clock.Now()
	err := f.runCommit(ctx, opts, touched)
	sp.SetError(err)
	sp.End()
	f.c.commitLat.ObserveDuration(f.c.clock.Now() - start)
	switch {
	case err == nil:
		f.c.commitsOK.Inc()
	case errors.Is(err, ErrConflict):
		f.c.commitConflicts.Inc()
	}
	return err
}

// runCommit drives the commit with abort-and-retry self-healing: a round
// that loses a participant (timeout-class failure) is rolled back — shadows
// aborted, commit window released — then the journaled writes are replayed
// onto freshly placed or failed-over shadows and the whole round runs
// again, with jittered backoff between attempts. Non-transient failures
// (conflicts, application errors) and sessions whose journal overflowed
// fail exactly as before.
func (f *File) runCommit(ctx context.Context, opts CommitOptions, touched []ids.SegID) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = f.commitOnce(ctx, opts, touched)
		if err == nil || attempt+1 >= f.c.cfg.Retry.MaxAttempts || !f.commitRetryable(err) {
			return err
		}
		f.c.commitRetries.Inc()
		if f.c.sleepBackoff(ctx, attempt) != nil {
			return err
		}
		if rerr := f.replayJournal(ctx); rerr != nil {
			return err
		}
	}
}

// commitRetryable reports whether a failed round is worth re-running: the
// failure must be timeout-class (a died or partitioned participant) and
// the journal must still cover every write of the session.
func (f *File) commitRetryable(err error) bool {
	if !isTransient(err) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.journalOff
}

// commitOnce is one full commit round: window, 2PC, namespace record.
func (f *File) commitOnce(ctx context.Context, opts CommitOptions, touched []ids.SegID) error {
	// (7) Ask the namespace server for commit approval.
	begin, err := f.commitBegin(ctx)
	if err != nil {
		return err
	}

	f.mu.Lock()
	base := slices.Clone(f.idx.Segs)
	f.mu.Unlock()
	if err := f.commitBody(ctx, begin); err != nil {
		// Roll everything back: prepared shadows, the planned versions folded
		// into the index (no provider holds them, and a replay must base its
		// shadows on what the session was based on) and the commit window.
		f.c.commitAborts.Inc()
		f.mu.Lock()
		f.idx.Segs = base
		f.mu.Unlock()
		f.abortAll()
		f.c.nsCtx(ctx, wire.NSCommitAbort{FileID: f.entry.FileID, Path: f.path, Ticket: begin.Ticket})
		return err
	}
	if opts.Sync {
		f.syncReplicas(touched)
	}
	return nil
}

func (f *File) commitBegin(ctx context.Context) (wire.NSCommitBeginResp, error) {
	// Bound the wait on a blocked window so a crashed holder (or our own
	// abandoned ticket from a round whose abort was lost) cannot wedge the
	// commit: windows expire server-side, so the bounded wait resolves.
	deadline := f.c.clock.Now() + f.c.cfg.CallTimeout
	for {
		resp, err := f.c.nsCtx(ctx, wire.NSCommitBegin{FileID: f.entry.FileID, Path: f.path, BaseVer: f.baseVer})
		if err != nil {
			return wire.NSCommitBeginResp{}, err
		}
		r, ok := resp.(wire.NSCommitBeginResp)
		if !ok {
			return wire.NSCommitBeginResp{}, fmt.Errorf("core: unexpected commit response %T", resp)
		}
		switch {
		case r.OK:
			return r, nil
		case r.Conflict:
			return r, ErrConflict
		case r.Blocked:
			if f.c.clock.Now() > deadline {
				return r, fmt.Errorf("core: commit window on %s blocked: %w", f.path, transport.ErrTimeout)
			}
			// Another process holds the commit window; wait briefly.
			f.c.clock.Sleep(f.c.cfg.ProbeTimeout / 4)
		default:
			return r, fmt.Errorf("core: commit begin rejected for %s", f.path)
		}
	}
}

// commitBody runs steps (8)–(9): prepare data shadows, rewrite and prepare
// the index shadow (one request), commit everything, and complete at the
// namespace.
func (f *File) commitBody(ctx context.Context, begin wire.NSCommitBeginResp) error {
	// Group dirty data segments by their shadow's provider.
	f.mu.Lock()
	byNode := make(map[wire.NodeID][]ids.SegID)
	for seg, d := range f.dirty {
		byNode[d.node] = append(byNode[d.node], seg)
	}
	f.mu.Unlock()
	nodes := make([]wire.NodeID, 0, len(byNode))
	for n := range byNode {
		sort.Slice(byNode[n], func(i, j int) bool { return byNode[n][i].Less(byNode[n][j]) })
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// Phase one on data segments, one round-trip per participant in
	// parallel: each worker collects its own response, results merge after
	// the barrier so the shared map sees no concurrent writes.
	// Prepare and commit RPCs ride the retry policy: same-owner re-prepare
	// is idempotent on the participant, so a lost response is safe to
	// resend.
	prepared := make([]wire.Prepare2PCResp, len(nodes))
	err := fanout(len(nodes), f.c.parallelism(), func(i int) error {
		node := nodes[i]
		resp, err := f.c.callRetry(ctx, node, wire.Prepare2PC{Owner: f.owner, Segs: byNode[node]})
		if err != nil {
			return err
		}
		r, ok := resp.(wire.Prepare2PCResp)
		if !ok || !r.OK {
			return fmt.Errorf("core: prepare on %s: %s", node, r.Err)
		}
		prepared[i] = r
		return nil
	})
	if err != nil {
		return err
	}
	planned := make(map[ids.SegID]struct {
		ver  uint64
		size int64
	})
	for i, node := range nodes {
		for j, seg := range byNode[node] {
			planned[seg] = struct {
				ver  uint64
				size int64
			}{prepared[i].PlannedVers[j], prepared[i].Sizes[j]}
		}
	}

	// Fold the planned versions into the index, then phase one on the index
	// segment: its planned version is the file's next version.
	f.mu.Lock()
	for i := range f.idx.Segs {
		if pl, ok := planned[f.idx.Segs[i].ID]; ok {
			f.idx.Segs[i].Version = pl.ver
			if pl.size > f.idx.Segs[i].Size {
				f.idx.Segs[i].Size = pl.size
			}
		}
	}
	encoded := f.idx.Encode()
	size := f.idx.Size
	if f.idx.IsAttached() {
		size = int64(len(f.idx.Attached))
	}
	f.mu.Unlock()
	indexNode, newVer, err := f.writeIndexShadow(ctx, encoded)
	if err != nil {
		return err
	}

	// Phase two everywhere: data participants in parallel, then the index
	// segment last — its commit is what makes the new version reachable.
	err = fanout(len(nodes), f.c.parallelism(), func(i int) error {
		node := nodes[i]
		plannedVers := make([]uint64, len(byNode[node]))
		for j, seg := range byNode[node] {
			plannedVers[j] = planned[seg].ver
		}
		resp, err := f.c.callRetry(ctx, node, wire.Commit2PC{Owner: f.owner, Segs: byNode[node], Planned: plannedVers})
		if err != nil {
			return err
		}
		if r, ok := resp.(wire.GenericResp); !ok || !r.OK {
			return fmt.Errorf("core: commit on %s: %s", node, r.Err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	resp, err := f.c.callRetry(ctx, indexNode, wire.Commit2PC{Owner: f.owner, Segs: []ids.SegID{f.entry.FileID}, Planned: []uint64{newVer}})
	if err != nil {
		return err
	}
	if r, ok := resp.(wire.GenericResp); !ok || !r.OK {
		return fmt.Errorf("core: commit index on %s: %s", indexNode, r.Err)
	}

	// (9) Complete at the namespace server.
	cresp, err := f.c.nsCtx(ctx, wire.NSCommitComplete{
		FileID: f.entry.FileID, Path: f.path, NewVer: newVer,
		Ticket: begin.Ticket, NewSize: size,
	})
	if err != nil {
		return err
	}
	if r, ok := cresp.(wire.NSGenericResp); !ok || !r.OK {
		return fmt.Errorf("core: commit complete: %s", r.Err)
	}

	// Session state rolls forward onto the new version; the journal has
	// served its purpose once the commit is acknowledged. The owner cache
	// restarts from what this commit proved — every dirty segment is current
	// on its shadow's node — so the next write does not depend on how much
	// of the announcement the home host has absorbed.
	f.mu.Lock()
	f.baseVer = newVer
	f.entry.Version = newVer
	f.owners = make(map[ids.SegID][]wire.OwnerInfo, len(f.dirty))
	for seg, d := range f.dirty {
		ver := newVer // the index segment
		if pl, ok := planned[seg]; ok {
			ver = pl.ver
		}
		f.owners[seg] = []wire.OwnerInfo{{Node: d.node, Version: ver}}
	}
	f.dirty = make(map[ids.SegID]*dirtySeg)
	f.indexDirty = false
	f.journal = nil
	f.journalSize = 0
	f.mu.Unlock()
	return nil
}

// writeIndexShadow is the index segment's whole leg of phase one, in one
// request to one node: place the segment (first commit) or walk to an owner
// at the session's base version, then shadow it, replace its content with
// the encoded index and prepare it there. It returns that node and the
// planned version, which must be past the base: a plan from a node behind
// the base would publish a version number twice. A plan further ahead is
// fine — a round whose index committed but whose namespace record was lost
// leaves the index a version past the namespace, and the next round skips
// that number.
func (f *File) writeIndexShadow(ctx context.Context, encoded []byte) (wire.NodeID, uint64, error) {
	fid := f.entry.FileID
	var node wire.NodeID
	var newVer uint64
	prepareOn := func(n wire.NodeID) ([]wire.OwnerInfo, bool, error) {
		// Recorded before the request goes out: a lost reply can leave a
		// prepared shadow holding the segment's commit slot, and abortAll
		// must reach it.
		f.mu.Lock()
		f.dirty[fid] = &dirtySeg{node: n}
		f.mu.Unlock()
		node = n
		// Same bytes, same owner: the participant treats a resend as the same
		// prepare, so a lost response is safe to retry.
		resp, err := f.c.callRetry(ctx, n, wire.SegShadow{
			Owner:             f.owner,
			Seg:               fid,
			BaseVer:           f.baseVer, // kept there until a later commit is based past it
			TTLSec:            f.c.cfg.ShadowTTL.Seconds(),
			ReplDeg:           f.attrs.ReplDeg,
			LocalityThreshold: 0, // index segments follow reads, not locality policy
			Prepare:           true,
			Data:              encoded,
		})
		if err != nil {
			return nil, true, err // the round aborts; a retry walks again
		}
		r, ok := resp.(wire.SegShadowResp)
		if !ok || !r.OK {
			return nil, false, fmt.Errorf("core: prepare index on %s: %s", n, r.Err)
		}
		newVer = r.NewVer
		return nil, true, nil
	}
	var err error
	if f.baseVer == 0 {
		// First commit: place the index segment. Index segments are
		// small, so the home host gets the 3N bias (paper §3.7.2).
		n, perr := f.c.place(f.attrs, int64(len(encoded)), f.c.members.HomeOf(fid), true, nil)
		if perr != nil {
			return "", 0, perr
		}
		_, _, err = prepareOn(n)
	} else {
		_, err = f.c.walk(f, fid, f.baseVer, false, prepareOn)
	}
	if err == nil && newVer <= f.baseVer {
		err = fmt.Errorf("core: index of %s prepared as v%d on %s, session based on v%d", f.path, newVer, node, f.baseVer)
	}
	return node, newVer, err
}

// abortAll rolls back every open shadow of the session.
func (f *File) abortAll() {
	f.mu.Lock()
	byNode := make(map[wire.NodeID][]ids.SegID)
	for seg, d := range f.dirty {
		byNode[d.node] = append(byNode[d.node], seg)
	}
	f.dirty = make(map[ids.SegID]*dirtySeg)
	f.indexDirty = false
	f.mu.Unlock()
	nodes := make([]wire.NodeID, 0, len(byNode))
	for node := range byNode {
		nodes = append(nodes, node)
	}
	fanout(len(nodes), f.c.parallelism(), func(i int) error {
		f.c.call(nodes[i], wire.Abort2PC{Owner: f.owner, Segs: byNode[nodes[i]]})
		return nil
	})
}

// syncReplicas pushes the just-committed versions of the touched segments
// to stale replicas and waits — the synchronous commitment option
// (paper §3.6). The commit left each segment current on its shadow's node,
// which the owner cache's roll-forward names.
func (f *File) syncReplicas(refs []ids.SegID) {
	fanout(len(refs), f.c.parallelism(), func(i int) error {
		seg := refs[i]
		cur := f.cachedOwners(seg)
		if len(cur) == 0 {
			return nil
		}
		src := cur[0]
		owners, _ := f.c.ownersOf(seg, 0)
		stale := slices.DeleteFunc(owners, func(o wire.OwnerInfo) bool { return o.Node == src.Node || o.Version >= src.Version })
		// The stale replicas of one segment each pull from the same source;
		// pushing the notifications in parallel lets their catch-up
		// transfers overlap.
		fanout(len(stale), f.c.parallelism(), func(j int) error {
			f.c.call(stale[j].Node, wire.SyncNotify{Seg: seg, Version: src.Version, Source: src.Node})
			return nil
		})
		return nil
	})
}

// Drop discards the session's uncommitted changes (Figure 4's conflict
// path).
func (f *File) Drop() {
	f.abortAll()
	f.clearJournal()
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// Close commits pending changes (the implicit commit on close, §3.5) and
// invalidates the handle.
func (f *File) Close() error {
	err := func() error {
		f.mu.Lock()
		writable := f.writable && !f.closed
		f.mu.Unlock()
		if !writable {
			return nil
		}
		return f.Commit(CommitOptions{})
	}()
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return err
}

// Sync commits pending changes and keeps the handle open for further
// writes based on the new version (a sync call creates a fresh shadow
// session, §3.5).
func (f *File) Sync() error {
	return f.Commit(CommitOptions{})
}

// AtomicAppend appends a record to a file with retry-on-conflict — the
// application-level primitive of Figure 4.
func (c *Client) AtomicAppend(path string, record []byte) error {
	for {
		f, err := c.OpenWrite(path)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(record, f.Size()); err != nil {
			f.Drop()
			return err
		}
		err = f.Commit(CommitOptions{})
		if err == nil {
			f.mu.Lock()
			f.closed = true
			f.mu.Unlock()
			return nil
		}
		f.Drop()
		if !errors.Is(err, ErrConflict) {
			return err
		}
		// Conflict: delete the shadow copy and retry (Figure 4).
	}
}
