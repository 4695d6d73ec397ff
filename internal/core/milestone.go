package core

import (
	"fmt"

	"repro/internal/ids"
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
	// versions it references, then pin the index segment itself plus every
	// referenced data segment, on every owner.
	entry.Version = ver
	idx, indexOwners, err := c.fetchIndex(entry)
	if err != nil {
		return fmt.Errorf("core: pin %s v%d: %w", path, ver, err)
	}
	return c.eachReplica(entry.FileID, ver, idx, indexOwners, false, func(seg ids.SegID, ver uint64, node wire.NodeID) error {
		resp, err := c.call(node, wire.SegPin{Seg: seg, Version: ver, Unpin: unpin})
		if err != nil {
			return err
		}
		if g, ok := resp.(wire.GenericResp); (!ok || !g.OK) && !unpin {
			// An owner that no longer holds this version cannot pin it.
			return fmt.Errorf("core: pin %s v%d on %s: %s", seg.Short(), ver, node, g.Err)
		}
		return nil
	})
}
