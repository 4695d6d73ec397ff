package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/layout"
	"repro/internal/transport"
	"repro/internal/wire"
)

// dirtySeg tracks an open shadow for one data segment of a write session.
type dirtySeg struct {
	node      wire.NodeID   // provider holding the shadow
	isNew     bool          // no committed base version exists yet
	renewedAt time.Duration // last lease grant (modeled clock)
}

// File is an open handle on a Sorrento file. A writable handle works on
// shadow copies invisible to other processes until Commit (paper §3.5);
// reads see the version current at open time plus the session's own writes.
type File struct {
	c        *Client
	path     string
	entry    wire.FileEntry
	attrs    wire.FileAttrs
	idx      *layout.Index
	baseVer  uint64
	writable bool
	owner    string // shadow-session token

	mu         sync.Mutex
	dirty      map[ids.SegID]*dirtySeg
	inflight   map[ids.SegID]chan struct{} // singleflight for shadow opens
	indexDirty bool
	owners     map[ids.SegID][]wire.OwnerInfo // owner cache for reads
	segHome    map[ids.SegID]wire.NodeID      // direct-mode owner pin
	closed     bool

	// journal retains this session's data writes (bounded by
	// Config.MaxCommitJournal) so a commit that loses a participant
	// mid-2PC can abort, re-place the lost shadows, replay the writes,
	// and try again. journalOff marks a session that outgrew the cap and
	// reverted to fail-fast commits.
	journal     map[ids.SegID]*segJournal
	journalSize int64
	journalOff  bool
}

// segJournal is the replayable write log for one data segment.
type segJournal struct {
	segIdx int
	writes []jwrite
}

type jwrite struct {
	off  int64
	data []byte
}

// Create registers a new file with the given attributes and returns a
// writable handle at version 0 (no data committed yet). Versioning-off
// files (attrs.VersioningOff) are materialized immediately: their segments
// are placed and created, and the index commits as version 1.
func (c *Client) Create(path string, attrs wire.FileAttrs) (*File, error) {
	if attrs.ReplDeg <= 0 {
		attrs.ReplDeg = 1
	}
	if attrs.VersioningOff {
		// Replication depends on versioning (paper §3.5): disabling
		// versioning disables replication.
		attrs.ReplDeg = 1
	}
	fid := ids.New()
	resp, err := c.ns(wire.NSCreate{Path: path, FileID: fid, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(wire.NSCreateResp)
	if !ok || !r.OK {
		return nil, fmt.Errorf("core: create %s: %s", path, r.Err)
	}
	idx, err := layout.NewIndex(attrs, c.cfg.Sizing, ids.New)
	if err != nil {
		return nil, err
	}
	f := &File{
		c:        c,
		path:     path,
		entry:    r.Entry,
		attrs:    attrs,
		idx:      idx,
		writable: true,
		owner:    fmt.Sprintf("%s#%d", c.name, c.sessSeq.Add(1)),
		dirty:    make(map[ids.SegID]*dirtySeg),
		inflight: make(map[ids.SegID]chan struct{}),
		owners:   make(map[ids.SegID][]wire.OwnerInfo),
		segHome:  make(map[ids.SegID]wire.NodeID),
	}
	if attrs.VersioningOff {
		if err := f.materializeDirect(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Open returns a read-only handle on the file's latest committed version.
func (c *Client) Open(path string) (*File, error) { return c.open(path, false, 0) }

// OpenVersion returns a read-only handle on a specific committed version —
// usable for any version still retained, including pinned milestones.
func (c *Client) OpenVersion(path string, ver uint64) (*File, error) {
	return c.open(path, false, ver)
}

// OpenWrite returns a writable handle: a shadow session based on the latest
// committed version.
func (c *Client) OpenWrite(path string) (*File, error) { return c.open(path, true, 0) }

func (c *Client) open(path string, writable bool, ver uint64) (*File, error) {
	entry, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	if ver != 0 {
		if writable {
			return nil, fmt.Errorf("core: cannot open an old version for writing")
		}
		if ver > entry.Version {
			return nil, fmt.Errorf("core: %s has no version %d (latest %d)", path, ver, entry.Version)
		}
		entry.Version = ver
	}
	f := &File{
		c:        c,
		path:     path,
		entry:    entry,
		attrs:    entry.Attrs,
		baseVer:  entry.Version,
		writable: writable,
		owner:    fmt.Sprintf("%s#%d", c.name, c.sessSeq.Add(1)),
		dirty:    make(map[ids.SegID]*dirtySeg),
		inflight: make(map[ids.SegID]chan struct{}),
		owners:   make(map[ids.SegID][]wire.OwnerInfo),
		segHome:  make(map[ids.SegID]wire.NodeID),
	}
	if entry.Attrs.VersioningOff {
		f.writable = true // direct files are always writable in place
	}
	if entry.Version == 0 {
		idx, ierr := layout.NewIndex(entry.Attrs, c.cfg.Sizing, ids.New)
		if ierr != nil {
			return nil, ierr
		}
		f.idx = idx
		return f, nil
	}
	idx, srcOwners, err := c.fetchIndex(entry)
	if err != nil {
		return nil, err
	}
	f.idx = idx
	f.owners[entry.FileID] = srcOwners
	return f, nil
}

// fetchIndex retrieves and decodes the index segment for a committed file.
func (c *Client) fetchIndex(entry wire.FileEntry) (*layout.Index, []wire.OwnerInfo, error) {
	data, owners, err := c.readWhole(entry.FileID, entry.Version)
	if err != nil {
		return nil, nil, fmt.Errorf("core: fetch index of %s: %w", entry.Path, err)
	}
	idx, err := layout.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	return idx, owners, nil
}

// readWhole fetches an entire segment version via SegFetch. It asks the home
// host for the bytes rather than for directions: a small segment's home host
// is usually its owner (the 3N placement bias, paper §3.7.2), and one that is
// not answers with the owners instead. When the home host is unreachable,
// knows no owner, or names only owners that do not serve the version — a home
// host back from a crash knows itself alone, one version behind — the
// multicast probe finds the rest, as in locate. It returns the owners it
// learned alongside the data.
func (c *Client) readWhole(seg ids.SegID, ver uint64) ([]byte, []wire.OwnerInfo, error) {
	var lastErr error
	var owners []wire.OwnerInfo
	home := c.members.HomeOf(seg)
	if home != "" {
		r, err := c.fetchFrom(home, seg, ver)
		if err == nil && r.OK {
			return r.Data, r.Owners, nil
		}
		lastErr, owners = err, r.Owners
	}
	for probed := false; ; probed = true {
		for _, o := range orderOwners(owners, c.ep.Host()) {
			if o.Node == home {
				continue // it answered above
			}
			r, err := c.fetchFrom(o.Node, seg, ver)
			if err != nil {
				lastErr = err
			} else if r.OK {
				if lastErr != nil {
					c.failovers.Inc()
				}
				return r.Data, owners, nil
			}
		}
		if probed {
			break
		}
		var err error
		if owners, err = c.probe(seg, ver); err != nil {
			return nil, nil, err
		}
	}
	if lastErr == nil {
		lastErr = ErrUnlocatable
	}
	return nil, owners, lastErr
}

// fetchFrom is one SegFetch to one node. A reply that is not OK is not an
// error: the node does not serve that version, and Owners is its redirect.
func (c *Client) fetchFrom(node wire.NodeID, seg ids.SegID, ver uint64) (wire.SegFetchResp, error) {
	resp, err := c.call(node, wire.SegFetch{Seg: seg, Version: ver})
	if err != nil {
		c.noteDead(node, err)
		return wire.SegFetchResp{}, err
	}
	r, _ := resp.(wire.SegFetchResp)
	if r.OK && !fetchRespIntact(r) {
		c.readMismatches.Inc()
		return wire.SegFetchResp{Owners: r.Owners}, fmt.Errorf("core: fetch %s from %s: checksum mismatch", seg.Short(), node)
	}
	return r, nil
}

// orderOwners prefers a co-located owner, otherwise keeps the newest-first
// order the location table provides.
func orderOwners(owners []wire.OwnerInfo, host wire.NodeID) []wire.OwnerInfo {
	if host == "" {
		return owners
	}
	out := make([]wire.OwnerInfo, 0, len(owners))
	for _, o := range owners {
		if o.Node == host {
			out = append(out, o)
		}
	}
	for _, o := range owners {
		if o.Node != host {
			out = append(out, o)
		}
	}
	return out
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Size returns the logical file size including uncommitted writes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.idx.IsAttached() {
		return int64(len(f.idx.Attached))
	}
	return f.idx.Size
}

// Version returns the committed version this handle is based on.
func (f *File) Version() uint64 { return f.baseVer }

// Attrs returns the file's attributes.
func (f *File) Attrs() wire.FileAttrs { return f.attrs }

// ---------------------------------------------------------------------------
// Reads

// ReadAt reads len(p) bytes at offset off, returning io.EOF at or past end
// of file. The view is the open version plus this session's own writes.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	if f.idx.IsAttached() {
		n := copy(p, f.idx.Attached[min64(off, int64(len(f.idx.Attached))):])
		f.mu.Unlock()
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	size := f.idx.Size
	if off >= size {
		f.mu.Unlock()
		return 0, io.EOF
	}
	n := int64(len(p))
	atEOF := false
	if off+n > size {
		n = size - off
		atEOF = true
	}
	pieces, err := f.idx.Map(off, n)
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	// Snapshot what each piece needs under the lock.
	type job struct {
		piece layout.Piece
		ref   layout.SegRef
		dirty *dirtySeg
		dst   []byte
	}
	jobs := make([]job, 0, len(pieces))
	cursor := int64(0)
	for _, piece := range pieces {
		ref := f.idx.Segs[piece.SegIdx]
		jobs = append(jobs, job{piece: piece, ref: ref, dirty: f.dirty[ref.ID], dst: p[cursor : cursor+piece.N]})
		cursor += piece.N
	}
	f.mu.Unlock()

	// Fan the pieces out across segments (the point of striping, §3.2):
	// pieces of the same segment stay in submission order within one
	// worker, distinct segments proceed concurrently. Each job writes only
	// its own disjoint dst subslice, so a failed fan-out cannot corrupt
	// bytes owned by other pieces.
	groups := make([][]job, 0, len(jobs))
	segGroup := make(map[int]int)
	for _, j := range jobs {
		gi, ok := segGroup[j.piece.SegIdx]
		if !ok {
			gi = len(groups)
			segGroup[j.piece.SegIdx] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	err = fanout(len(groups), f.c.parallelism(), func(gi int) error {
		for _, j := range groups[gi] {
			// Over TCP the reply is decoded straight into the piece's
			// destination; io.ReaderAt lets a failed attempt scribble on p.
			ctx := transport.WithReplyBuffer(context.Background(), j.dst)
			var data []byte
			var rerr error
			switch {
			case j.dirty != nil:
				data, rerr = f.readShadowPiece(ctx, j.dirty.node, j.ref.ID, j.piece)
			case j.ref.Version == 0 && !f.attrs.VersioningOff:
				// No commit has written this segment: it holds only zeros,
				// and no provider has it to ask.
			default:
				data, rerr = f.readCommittedPiece(ctx, j.ref, j.piece)
			}
			if rerr != nil {
				return rerr
			}
			n := len(data)
			if n > 0 && &data[0] != &j.dst[0] {
				n = copy(j.dst, data)
			}
			// A short piece (a sparse region of a direct segment, or a
			// segment never written) reads as zeros whatever p held.
			clear(j.dst[n:])
		}
		return nil
	})
	if err != nil {
		return int(cursor - int64(len(p))), err
	}
	if atEOF {
		return int(n), io.EOF
	}
	return int(n), nil
}

func (f *File) readShadowPiece(ctx context.Context, node wire.NodeID, seg ids.SegID, piece layout.Piece) ([]byte, error) {
	resp, err := f.c.callCtx(ctx, node, wire.SegShadowRead{Owner: f.owner, Seg: seg, Offset: piece.Off, Length: piece.N})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(wire.SegReadResp)
	if !ok || !r.OK {
		return nil, fmt.Errorf("core: shadow read: %s", r.Err)
	}
	return r.Data, nil
}

// readCommittedPiece reads a piece of a committed segment: cached owners
// first, then the home host (which serves directly or redirects), then the
// multicast probe.
func (f *File) readCommittedPiece(ctx context.Context, ref layout.SegRef, piece layout.Piece) ([]byte, error) {
	ver := ref.Version
	if f.attrs.VersioningOff {
		ver = 0 // direct segments serve their single in-place version
	}
	f.mu.Lock()
	cached := f.owners[ref.ID]
	f.mu.Unlock()
	if len(cached) > 0 {
		if data, err := f.tryOwnersRead(ctx, cached, ref.ID, ver, piece); err == nil {
			return data, nil
		}
		f.mu.Lock()
		delete(f.owners, ref.ID)
		f.mu.Unlock()
	}
	// Home host: may serve directly or redirect (Figure 7 steps 2–3).
	if home := f.c.members.HomeOf(ref.ID); home != "" {
		resp, err := f.c.callCtx(ctx, home, wire.SegRead{Seg: ref.ID, Version: ver, Offset: piece.Off, Length: piece.N})
		if err != nil {
			f.c.noteDead(home, err)
		}
		if err == nil {
			if r, ok := resp.(wire.SegReadResp); ok && r.OK {
				switch {
				case !r.Redirect && readRespIntact(r):
					f.cacheOwner(ref.ID, []wire.OwnerInfo{{Node: home, Version: r.Version}})
					return r.Data, nil
				case !r.Redirect:
					f.c.readMismatches.Inc()
				default:
					f.cacheOwner(ref.ID, r.Owners)
					if data, err := f.tryOwnersRead(ctx, r.Owners, ref.ID, ver, piece); err == nil {
						return data, nil
					}
				}
			}
		}
	}
	// Backup scheme.
	owners, err := f.c.probe(ref.ID, ver)
	if err != nil {
		return nil, err
	}
	f.cacheOwner(ref.ID, owners)
	return f.tryOwnersRead(ctx, owners, ref.ID, ver, piece)
}

func (f *File) cacheOwner(seg ids.SegID, owners []wire.OwnerInfo) {
	f.mu.Lock()
	f.owners[seg] = owners
	f.mu.Unlock()
}

// dropCachedOwner removes one failed node from a segment's cached owner
// list, so the next read goes straight to the surviving replicas instead
// of re-timing-out on the dead one.
func (f *File) dropCachedOwner(seg ids.SegID, node wire.NodeID) {
	f.mu.Lock()
	cached := f.owners[seg]
	kept := cached[:0]
	for _, o := range cached {
		if o.Node != node {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		delete(f.owners, seg)
	} else {
		f.owners[seg] = kept
	}
	f.mu.Unlock()
}

// tryOwnersRead reads one piece, failing over across the replica sites. A
// site whose RPC fails is dropped from the owner cache on the spot (and,
// on timeout, evicted from the membership view), so one dead replica costs
// one timeout — not one per subsequent read.
func (f *File) tryOwnersRead(ctx context.Context, owners []wire.OwnerInfo, seg ids.SegID, ver uint64, piece layout.Piece) ([]byte, error) {
	var lastErr error
	for _, o := range orderOwners(owners, f.c.ep.Host()) {
		resp, err := f.c.callCtx(ctx, o.Node, wire.SegRead{Seg: seg, Version: ver, Offset: piece.Off, Length: piece.N})
		if err != nil {
			lastErr = err
			f.dropCachedOwner(seg, o.Node)
			f.c.noteDead(o.Node, err)
			continue
		}
		r, ok := resp.(wire.SegReadResp)
		if !ok || !r.OK || r.Redirect {
			lastErr = fmt.Errorf("core: read %s from %s: %s", seg.Short(), o.Node, r.Err)
			continue
		}
		if !readRespIntact(r) {
			lastErr = fmt.Errorf("core: read %s from %s: checksum mismatch", seg.Short(), o.Node)
			f.c.readMismatches.Inc()
			f.dropCachedOwner(seg, o.Node)
			continue
		}
		if lastErr != nil {
			f.c.failovers.Inc()
		}
		return r.Data, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: no owner served %s v%d", ErrUnlocatable, seg.Short(), ver)
	}
	return nil, lastErr
}

// ---------------------------------------------------------------------------
// Writes

// WriteAt writes p at offset off into the session's shadow copies, growing
// the file as needed. Nothing is visible to other processes until Commit.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	if !f.writable {
		f.mu.Unlock()
		return 0, ErrReadOnly
	}
	f.mu.Unlock()
	if f.attrs.VersioningOff {
		return f.writeDirect(p, off)
	}
	return f.writeShadow(p, off)
}

func (f *File) writeShadow(p []byte, off int64) (int, error) {
	f.mu.Lock()
	// Small files live attached inside the index segment until they
	// outgrow the limit.
	if f.idx.IsAttached() {
		if f.attrs.Mode == wire.Linear && off+int64(len(p)) <= layout.MaxAttach {
			f.growAttachedLocked(off, p)
			f.indexDirty = true
			f.mu.Unlock()
			return len(p), nil
		}
		// Spill: detach the payload, then flush it into real segments
		// before applying the new write.
		old := f.idx.Attached
		f.idx.HasAttached = false
		f.idx.Attached = nil
		f.mu.Unlock()
		if len(old) > 0 {
			if _, err := f.writeShadowRange(old, 0); err != nil {
				return 0, err
			}
		}
		return f.writeShadowRange(p, off)
	}
	f.mu.Unlock()
	return f.writeShadowRange(p, off)
}

func (f *File) growAttachedLocked(off int64, p []byte) {
	end := off + int64(len(p))
	if int64(len(f.idx.Attached)) < end {
		nb := make([]byte, end)
		copy(nb, f.idx.Attached)
		f.idx.Attached = nb
	}
	copy(f.idx.Attached[off:end], p)
}

func (f *File) writeShadowRange(p []byte, off int64) (int, error) {
	f.mu.Lock()
	pieces, err := f.idx.Plan(off, int64(len(p)), ids.New)
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	type job struct {
		piece layout.Piece
		ref   layout.SegRef
		data  []byte
	}
	jobs := make([]job, 0, len(pieces))
	cursor := int64(0)
	for _, piece := range pieces {
		jobs = append(jobs, job{piece: piece, ref: f.idx.Segs[piece.SegIdx], data: p[cursor : cursor+piece.N]})
		cursor += piece.N
	}
	f.indexDirty = true
	f.mu.Unlock()

	f.renewStaleShadows()
	// Same grouping as ReadAt: per-segment write order is preserved (later
	// pieces of a segment must land after earlier ones), distinct segments
	// — including their shadow placement + creation — fan out concurrently.
	groups := make([][]job, 0, len(jobs))
	segGroup := make(map[int]int)
	for _, j := range jobs {
		gi, ok := segGroup[j.piece.SegIdx]
		if !ok {
			gi = len(groups)
			segGroup[j.piece.SegIdx] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	err = fanout(len(groups), f.c.parallelism(), func(gi int) error {
		for _, j := range groups[gi] {
			node, err := f.ensureShadow(j.ref, j.piece.SegIdx)
			if err != nil {
				return err
			}
			// Shadow writes are absolute-offset and therefore idempotent;
			// a lost response is safely retried.
			resp, err := f.c.callRetry(context.Background(), node, wire.SegWrite{Owner: f.owner, Seg: j.ref.ID, Offset: j.piece.Off, Data: j.data})
			if err != nil {
				return err
			}
			if r, ok := resp.(wire.SegWriteResp); !ok || !r.OK {
				return fmt.Errorf("core: write %s on %s: %s", j.ref.ID.Short(), node, r.Err)
			}
			f.journalWrite(j.piece.SegIdx, j.ref.ID, j.piece.Off, j.data)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// journalWrite retains a copy of one successful shadow write for commit
// retry, until the session's cap is hit.
func (f *File) journalWrite(segIdx int, seg ids.SegID, off int64, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.journalOff {
		return
	}
	if f.journalSize+int64(len(data)) > f.c.cfg.MaxCommitJournal {
		f.journalOff = true
		f.journal = nil
		f.journalSize = 0
		return
	}
	if f.journal == nil {
		f.journal = make(map[ids.SegID]*segJournal)
	}
	js := f.journal[seg]
	if js == nil {
		js = &segJournal{segIdx: segIdx}
		f.journal[seg] = js
	}
	js.writes = append(js.writes, jwrite{off: off, data: append([]byte(nil), data...)})
	f.journalSize += int64(len(data))
}

func (f *File) clearJournal() {
	f.mu.Lock()
	f.journal = nil
	f.journalSize = 0
	f.mu.Unlock()
}

// replayJournal rebuilds the session's shadows after an aborted commit
// round: every journaled segment gets a fresh shadow — placed away from
// dead nodes, or failed over to a surviving replica site — and its writes
// re-applied in original order.
func (f *File) replayJournal(ctx context.Context) error {
	f.mu.Lock()
	segs := make([]ids.SegID, 0, len(f.journal))
	for seg := range f.journal {
		segs = append(segs, seg)
	}
	f.mu.Unlock()
	return fanout(len(segs), f.c.parallelism(), func(i int) error {
		seg := segs[i]
		f.mu.Lock()
		js := f.journal[seg]
		ref := f.idx.Segs[js.segIdx]
		segIdx := js.segIdx
		writes := js.writes
		f.mu.Unlock()
		node, err := f.ensureShadow(ref, segIdx)
		if err != nil {
			return err
		}
		for _, w := range writes {
			resp, err := f.c.callRetry(ctx, node, wire.SegWrite{Owner: f.owner, Seg: seg, Offset: w.off, Data: w.data})
			if err != nil {
				return err
			}
			if r, ok := resp.(wire.SegWriteResp); !ok || !r.OK {
				return fmt.Errorf("core: replay write %s on %s: %s", seg.Short(), node, r.Err)
			}
		}
		return nil
	})
}

// ensureShadow opens (once) the shadow for a data segment, creating the
// segment on a freshly placed provider when it is new. Concurrent callers
// for the same segment coalesce on a singleflight channel so exactly one
// SegShadow RPC is issued per segment per session.
func (f *File) ensureShadow(ref layout.SegRef, segIdx int) (wire.NodeID, error) {
	for {
		f.mu.Lock()
		if d, ok := f.dirty[ref.ID]; ok {
			f.mu.Unlock()
			return d.node, nil
		}
		ch, busy := f.inflight[ref.ID]
		if !busy {
			ch = make(chan struct{})
			f.inflight[ref.ID] = ch
		}
		f.mu.Unlock()
		if busy {
			<-ch // another goroutine is opening this shadow; wait and re-check
			continue
		}
		node, err := f.openShadow(ref, segIdx)
		f.mu.Lock()
		if err == nil {
			f.dirty[ref.ID] = &dirtySeg{node: node, isNew: ref.Version == 0, renewedAt: f.c.clock.Now()}
		}
		delete(f.inflight, ref.ID)
		f.mu.Unlock()
		close(ch)
		return node, err
	}
}

// openShadow places (for new segments) and opens a shadow copy, returning
// the provider holding it. For an existing segment the shadow fails over
// across the replica sites holding the newest version; a new segment whose
// placed node won't answer is re-placed on an alternate.
func (f *File) openShadow(ref layout.SegRef, segIdx int) (wire.NodeID, error) {
	isNew := ref.Version == 0
	var cands []wire.NodeID
	if isNew {
		// Potential maximum size per the sizing scheme (paper footnote 2).
		// Data segments are placed purely by the file's policy; the
		// home-host 3N bias applies to index segments (the paper's
		// motivating "particular case"), where the extra hop dominates.
		maxSize := f.idx.Sizing.SegmentSize(segIdx)
		exclude := make(map[wire.NodeID]bool)
		for try := 0; try < 2; try++ {
			n, err := f.c.place(f.attrs, maxSize, "", false, exclude)
			if err != nil {
				if len(cands) > 0 {
					break // fewer candidates than tries; use what we have
				}
				return "", err
			}
			cands = append(cands, n)
			exclude[n] = true
		}
	} else {
		// Only replicas already at the version our index references can
		// base the shadow correctly; a stale replica would fork history.
		var maxVer uint64
		owners, err := f.segOwners(ref.ID)
		if err != nil {
			return "", err
		}
		for _, o := range owners {
			if o.Version > maxVer {
				maxVer = o.Version
			}
		}
		for _, o := range orderOwners(owners, f.c.ep.Host()) {
			if o.Version == maxVer && o.Version >= ref.Version {
				cands = append(cands, o.Node)
			}
		}
		if len(cands) == 0 {
			return "", fmt.Errorf("%w: no current replica of %s", ErrUnlocatable, ref.ID.Short())
		}
	}
	var lastErr error
	for i, node := range cands {
		if i > 0 && !f.c.members.IsLive(node) {
			continue // don't fail over onto a known-dead alternate
		}
		resp, err := f.c.call(node, wire.SegShadow{
			Owner:             f.owner,
			Seg:               ref.ID,
			BaseVer:           0,
			TTLSec:            f.c.cfg.ShadowTTL.Seconds(),
			ReplDeg:           f.attrs.ReplDeg,
			LocalityThreshold: f.attrs.LocalityThreshold,
		})
		if err != nil {
			lastErr = err
			f.dropCachedOwner(ref.ID, node)
			f.c.noteDead(node, err)
			continue
		}
		if r, ok := resp.(wire.SegShadowResp); !ok || !r.OK {
			lastErr = fmt.Errorf("core: shadow %s on %s: %s", ref.ID.Short(), node, r.Err)
			continue
		}
		if i > 0 {
			f.c.failovers.Inc()
		}
		return node, nil
	}
	return "", lastErr
}

// renewStaleShadows resets the expiration timer of every shadow in this
// session that is past a third of its TTL (paper §3.5: the application
// must commit or reset the timer before it expires). Long write sessions —
// populating a large file under contention — keep all their shadows alive
// this way, not just the one currently being written.
func (f *File) renewStaleShadows() {
	now := f.c.clock.Now()
	type renewal struct {
		node wire.NodeID
		seg  ids.SegID
	}
	var due []renewal
	f.mu.Lock()
	for seg, d := range f.dirty {
		if now-d.renewedAt >= f.c.cfg.ShadowTTL/3 {
			d.renewedAt = now
			due = append(due, renewal{node: d.node, seg: seg})
		}
	}
	f.mu.Unlock()
	// Renewals are independent control messages; push them out in parallel
	// so a wide session doesn't pay one round-trip per shadow.
	fanout(len(due), f.c.parallelism(), func(i int) error {
		r := due[i]
		f.c.call(r.node, wire.SegRenew{Owner: f.owner, Seg: r.seg, TTLSec: f.c.cfg.ShadowTTL.Seconds()})
		return nil
	})
}

func (f *File) segOwners(seg ids.SegID) ([]wire.OwnerInfo, error) {
	f.mu.Lock()
	cached := f.owners[seg]
	f.mu.Unlock()
	if len(cached) > 0 {
		return cached, nil
	}
	owners, err := f.c.locate(seg)
	if err != nil {
		return nil, err
	}
	f.cacheOwner(seg, owners)
	return owners, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
