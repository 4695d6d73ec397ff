package core

import (
	"context"
	"fmt"
	"io"
	"slices"
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
	owners     map[ids.SegID][]wire.OwnerInfo // owner cache: the walk fills and prunes it
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
	var idx *layout.Index
	var owners []wire.OwnerInfo
	for entry.Version > 0 {
		if idx, owners, err = c.fetchIndex(entry); err == nil || ver != 0 {
			break
		}
		// A segment keeps KeepVersions versions, so commits made since the
		// lookup can consolidate the looked-up one away: open the newest.
		latest, serr := c.Stat(path)
		if serr != nil || latest.Version == entry.Version {
			break
		}
		entry = latest
	}
	if err != nil {
		return nil, err
	}
	if idx == nil {
		if idx, err = layout.NewIndex(entry.Attrs, c.cfg.Sizing, ids.New); err != nil {
			return nil, err
		}
	}
	f := &File{
		c:        c,
		path:     path,
		entry:    entry,
		attrs:    entry.Attrs,
		idx:      idx,
		baseVer:  entry.Version,
		writable: writable || entry.Attrs.VersioningOff, // direct files are always writable in place
		owner:    fmt.Sprintf("%s#%d", c.name, c.sessSeq.Add(1)),
		dirty:    make(map[ids.SegID]*dirtySeg),
		inflight: make(map[ids.SegID]chan struct{}),
		owners:   map[ids.SegID][]wire.OwnerInfo{entry.FileID: owners},
	}
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

// readWhole fetches an entire segment version with SegFetch through the walk.
// A small segment's home host is usually its owner (the 3N placement bias,
// paper §3.7.2), so the home host is asked for the bytes, not for directions:
// one that holds the version serves it with its table's owners attached, one
// that does not names them. It returns the owners it learned with the data.
func (c *Client) readWhole(seg ids.SegID, ver uint64) ([]byte, []wire.OwnerInfo, error) {
	var data []byte
	owners, err := c.walk(nil, seg, ver, true, func(node wire.NodeID) ([]wire.OwnerInfo, bool, error) {
		resp, err := c.call(node, wire.SegFetch{Seg: seg, Version: ver})
		r, _ := resp.(wire.SegFetchResp)
		switch {
		case err != nil:
			return nil, false, err
		case !r.OK:
			// Not a failure of the node: it does not serve that version, and
			// Owners is its redirect.
			return r.Owners, false, nil
		case !fetchRespIntact(r):
			c.readMismatches.Inc()
			return r.Owners, false, fmt.Errorf("core: fetch %s from %s: checksum mismatch", seg.Short(), node)
		}
		data = r.Data
		return r.Owners, true, nil
	})
	return data, owners, err
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

// readCommittedPiece reads a piece of a committed segment through the walk;
// the home host serves the piece or redirects (Figure 7 steps 2–3).
func (f *File) readCommittedPiece(ctx context.Context, ref layout.SegRef, piece layout.Piece) ([]byte, error) {
	ver := ref.Version
	if f.attrs.VersioningOff {
		ver = 0 // direct segments serve their single in-place version
	}
	var data []byte
	_, err := f.c.walk(f, ref.ID, ver, true, func(node wire.NodeID) ([]wire.OwnerInfo, bool, error) {
		resp, err := f.c.callCtx(ctx, node, wire.SegRead{Seg: ref.ID, Version: ver, Offset: piece.Off, Length: piece.N})
		r, _ := resp.(wire.SegReadResp)
		switch {
		case err != nil:
			return nil, false, err
		case r.OK && r.Redirect:
			return r.Owners, false, nil
		case !r.OK:
			return nil, false, fmt.Errorf("core: read %s from %s: %s", ref.ID.Short(), node, r.Err)
		case !readRespIntact(r):
			f.c.readMismatches.Inc()
			return nil, false, fmt.Errorf("core: read %s from %s: checksum mismatch", ref.ID.Short(), node)
		}
		data = r.Data
		return []wire.OwnerInfo{{Node: node, Version: r.Version}}, true, nil
	})
	return data, err
}

// cachedOwners, setOwners and dropOwner keep a File's owner cache, which
// only the walk fills and prunes (a nil File has none).
func (f *File) cachedOwners(seg ids.SegID) []wire.OwnerInfo {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.owners[seg]
}

func (f *File) setOwners(seg ids.SegID, owners []wire.OwnerInfo) {
	if f != nil && len(owners) > 0 {
		f.mu.Lock()
		f.owners[seg] = owners
		f.mu.Unlock()
	}
}

// dropOwner removes a node whose request failed from a segment's cached
// owners, so the next walk does not wait on it again.
func (f *File) dropOwner(seg ids.SegID, node wire.NodeID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := slices.DeleteFunc(slices.Clone(f.owners[seg]), func(o wire.OwnerInfo) bool { return o.Node == node })
	if len(kept) == 0 {
		delete(f.owners, seg)
	} else {
		f.owners[seg] = kept
	}
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
			f.dirty[ref.ID] = &dirtySeg{node: node, renewedAt: f.c.clock.Now()}
		}
		delete(f.inflight, ref.ID)
		f.mu.Unlock()
		close(ch)
		return node, err
	}
}

// openShadow opens a shadow copy of a data segment and returns the provider
// holding it. An existing segment's shadow goes through the walk to an owner
// at the version the index references; a new segment is placed, and re-placed
// on an alternate when the placed node will not answer.
func (f *File) openShadow(ref layout.SegRef, segIdx int) (wire.NodeID, error) {
	// A new segment's shadow carries its capacity, so that the provider can
	// give a sequential writer one buffer of the final size.
	var hint int64
	if ref.Version == 0 {
		f.mu.Lock()
		hint = f.idx.SegCapacity(segIdx)
		f.mu.Unlock()
	}
	var node wire.NodeID
	shadowOn := func(n wire.NodeID) ([]wire.OwnerInfo, bool, error) {
		resp, err := f.c.call(n, wire.SegShadow{
			Owner:             f.owner,
			Seg:               ref.ID,
			TTLSec:            f.c.cfg.ShadowTTL.Seconds(),
			ReplDeg:           f.attrs.ReplDeg,
			LocalityThreshold: f.attrs.LocalityThreshold,
			SizeHint:          hint,
		})
		if r, ok := resp.(wire.SegShadowResp); err == nil && (!ok || !r.OK) {
			err = fmt.Errorf("core: shadow %s on %s: %s", ref.ID.Short(), n, r.Err)
		}
		node = n
		return nil, err == nil, err
	}
	if ref.Version > 0 {
		_, err := f.c.walk(f, ref.ID, ref.Version, false, shadowOn)
		return node, err
	}
	// Potential maximum size per the sizing scheme (paper footnote 2). Data
	// segments are placed purely by the file's policy; the home-host 3N bias
	// applies to index segments (the paper's motivating "particular case"),
	// where the extra hop dominates.
	maxSize := f.idx.Sizing.SegmentSize(segIdx)
	var cands []wire.NodeID
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
	t := f.c.tries(f, ref.ID, shadowOn)
	if done, _ := t.each(cands); done {
		return node, nil
	}
	return "", t.lastErr
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
