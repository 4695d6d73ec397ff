package core

import (
	"context"
	"fmt"

	"repro/internal/ids"
	"repro/internal/wire"
)

// materializeDirect provisions a versioning-off file (paper §3.5's option
// for applications implementing their own consistency, used by the parallel
// byte-range sharing primitive): every data segment is placed and created
// immediately, the index is pinned at version 1, and subsequent reads and
// writes apply to the segments in place without commits.
func (f *File) materializeDirect() error {
	if f.attrs.Mode != wire.Striped {
		return fmt.Errorf("core: versioning-off files require Striped mode with a declared size")
	}
	f.mu.Lock()
	f.idx.Size = f.attrs.DeclaredSize
	refs := make([]ids.SegID, len(f.idx.Segs))
	for i := range f.idx.Segs {
		f.idx.Segs[i].Version = 1
		refs[i] = f.idx.Segs[i].ID
	}
	f.mu.Unlock()

	// Place and create each data segment (empty; they grow in place).
	for _, seg := range refs {
		node, err := f.c.place(f.attrs, f.idx.Segs[0].Size, "", false, nil)
		if err != nil {
			return err
		}
		resp, err := f.c.call(node, wire.SegCreate{Seg: seg, Version: 1, ReplDeg: 1, Direct: true})
		if err != nil {
			return err
		}
		if r, ok := resp.(wire.SegCreateResp); !ok || !r.OK {
			return fmt.Errorf("core: create direct segment on %s: %s", node, r.Err)
		}
		f.mu.Lock()
		f.owners[seg] = []wire.OwnerInfo{{Node: node, Version: 1}}
		f.mu.Unlock()
	}

	// Commit the index once (version 1) so other processes can open the
	// file and find the segments.
	begin, err := f.commitBegin(context.Background())
	if err != nil {
		return err
	}
	f.mu.Lock()
	encoded := f.idx.Encode()
	f.mu.Unlock()
	indexNode, newVer, err := f.writeIndexShadow(context.Background(), encoded)
	if err != nil {
		return err
	}
	if cr, err := f.c.call(indexNode, wire.Commit2PC{Owner: f.owner, Segs: []ids.SegID{f.entry.FileID}}); err != nil {
		return err
	} else if g, ok := cr.(wire.GenericResp); !ok || !g.OK {
		return fmt.Errorf("core: commit direct index: %s", g.Err)
	}
	if cresp, err := f.c.ns(wire.NSCommitComplete{
		FileID: f.entry.FileID, Path: f.path, NewVer: newVer,
		Ticket: begin.Ticket, NewSize: f.attrs.DeclaredSize,
	}); err != nil {
		return err
	} else if g, ok := cresp.(wire.NSGenericResp); !ok || !g.OK {
		return fmt.Errorf("core: complete direct create: %s", g.Err)
	}
	f.mu.Lock()
	f.baseVer = newVer
	f.entry.Version = f.baseVer
	f.dirty = make(map[ids.SegID]*dirtySeg)
	f.indexDirty = false
	f.mu.Unlock()
	return nil
}

// writeDirect applies in-place writes to a versioning-off file's segments.
func (f *File) writeDirect(p []byte, off int64) (int, error) {
	f.mu.Lock()
	pieces, err := f.idx.Map(off, int64(len(p)))
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	type job struct {
		seg  ids.SegID
		off  int64
		data []byte
	}
	jobs := make([]job, 0, len(pieces))
	cursor := int64(0)
	for _, piece := range pieces {
		jobs = append(jobs, job{seg: f.idx.Segs[piece.SegIdx].ID, off: piece.Off, data: p[cursor : cursor+piece.N]})
		cursor += piece.N
	}
	f.mu.Unlock()
	for _, j := range jobs {
		// A direct segment has one copy: the first owner found takes the
		// write or fails it.
		_, err := f.c.walk(f, j.seg, 0, false, func(node wire.NodeID) ([]wire.OwnerInfo, bool, error) {
			resp, err := f.c.call(node, wire.SegWrite{Seg: j.seg, Offset: j.off, Data: j.data, Direct: true})
			if r, ok := resp.(wire.SegWriteResp); err == nil && (!ok || !r.OK) {
				err = fmt.Errorf("core: direct write on %s: %s", node, r.Err)
			}
			return nil, true, err
		})
		if err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
