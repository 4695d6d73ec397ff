package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/layout"
	"repro/internal/wire"
)

// PinMilestone marks a committed file version as a milestone: the index
// segment version and every data segment version it references are pinned
// on all their owners, so the milestone stays readable regardless of later
// commits and version consolidation. ver 0 pins the latest committed
// version. (Paper §3.5 plans exactly this, citing the Elephant file
// system.)
func (c *Client) PinMilestone(path string, ver uint64) error {
	return c.pin(path, ver, false)
}

// UnpinMilestone releases a milestone pinned with PinMilestone.
func (c *Client) UnpinMilestone(path string, ver uint64) error {
	return c.pin(path, ver, true)
}

func (c *Client) pin(path string, ver uint64, unpin bool) error {
	entry, err := c.Stat(path)
	if err != nil {
		return err
	}
	if entry.Version == 0 {
		return fmt.Errorf("core: %s has no committed version to pin", path)
	}
	if ver == 0 {
		ver = entry.Version
	}
	// Fetch the index *at the milestone version* to learn the data segment
	// versions it references.
	data, _, err := c.readWhole(entry.FileID, ver)
	if err != nil {
		return fmt.Errorf("core: pin %s v%d: %w", path, ver, err)
	}
	idx, err := layout.Decode(data)
	if err != nil {
		return err
	}
	// Pin the index segment itself plus every referenced data segment, on
	// every owner.
	targets := []struct {
		seg ids.SegID
		ver uint64
	}{{entry.FileID, ver}}
	for _, ref := range idx.Segs {
		targets = append(targets, struct {
			seg ids.SegID
			ver uint64
		}{ref.ID, ref.Version})
	}
	for _, tgt := range targets {
		owners, lerr := c.locate(tgt.seg)
		if lerr != nil {
			return fmt.Errorf("core: pin %s: locate %s: %w", path, tgt.seg.Short(), lerr)
		}
		for _, o := range owners {
			resp, cerr := c.call(o.Node, wire.SegPin{Seg: tgt.seg, Version: tgt.ver, Unpin: unpin})
			if cerr != nil {
				return cerr
			}
			if g, ok := resp.(wire.GenericResp); !ok || !g.OK {
				// An owner that no longer holds this version cannot pin it;
				// surface the first hard failure.
				if !unpin {
					return fmt.Errorf("core: pin %s v%d on %s: %s", tgt.seg.Short(), tgt.ver, o.Node, g.Err)
				}
			}
		}
	}
	return nil
}
