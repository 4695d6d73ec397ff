// Package wire defines the shared on-the-wire schema of the Sorrento
// protocols: node identities, file/segment metadata, and every RPC message
// exchanged between clients, storage providers, and namespace servers. All
// message types are plain data with a binary codec (codec.go), so the same
// protocol code runs over the in-process simulated fabric and the real TCP
// transport.
//
// By convention messages are immutable once sent: senders must not retain
// and mutate payload buffers, and receivers must treat payloads (e.g.
// SegReadResp.Data) as read-only — over the in-process fabric a response
// may alias the provider's committed segment bytes, so a receiver that
// needs a private mutable copy must make one.
package wire

import (
	"time"

	"repro/internal/ids"
)

// NodeID names a cluster node. Over the simulated fabric it is a symbolic
// name ("p3"); over TCP it is a host:port address.
type NodeID string

// LayoutMode selects how a logical file's byte array maps onto data
// segments (paper §3.2, Figure 3).
type LayoutMode uint8

const (
	// Linear concatenates variable-length segments; suited to sequential
	// access. Segment sizes grow per the paper's sizing formula.
	Linear LayoutMode = iota
	// Striped spreads fixed-size stripes RAID-0 style across a fixed number
	// of equal segments; file size must be declared at creation.
	Striped
	// Hybrid concatenates groups of striped segments, combining parallel
	// I/O with open-ended growth.
	Hybrid
)

func (m LayoutMode) String() string {
	switch m {
	case Linear:
		return "linear"
	case Striped:
		return "striped"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// PlacementPolicy selects how new segment locations are chosen (paper §3.7).
type PlacementPolicy uint8

const (
	// PlaceLoadAware uses the weighted-random f_l/f_s scheme.
	PlaceLoadAware PlacementPolicy = iota
	// PlaceRandom places uniformly at random (the Sorrento-random baseline
	// in Figure 14).
	PlaceRandom
	// PlaceLocal places new segments on the creating client's node when it
	// is a provider, falling back to load-aware placement.
	PlaceLocal
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlaceLoadAware:
		return "load-aware"
	case PlaceRandom:
		return "random"
	case PlaceLocal:
		return "local"
	default:
		return "unknown"
	}
}

// FileAttrs carries the per-file tuning knobs applications can set through
// the extended API (paper §2.3, §3.6, §3.7.2).
type FileAttrs struct {
	// ReplDeg is the replication degree; 1 means unreplicated.
	ReplDeg int
	// Alpha in [0,1] biases placement toward load (1) or space (0).
	Alpha float64
	// Mode is the data organization mode.
	Mode LayoutMode
	// StripeCount is the number of segments per stripe group (Striped and
	// Hybrid modes).
	StripeCount int
	// StripeUnit is the striping block size in bytes (Striped and Hybrid).
	StripeUnit int64
	// DeclaredSize is the file size required by Striped mode.
	DeclaredSize int64
	// Policy selects the placement policy.
	Policy PlacementPolicy
	// VersioningOff disables version-based consistency for this file;
	// reads and writes then apply in place and replication is disabled
	// (paper §3.5, used by the byte-range sharing primitive).
	VersioningOff bool
	// LocalityThreshold, when > 0.5, enables locality-driven migration for
	// the file's segments: a segment migrates to a node contributing more
	// than this fraction of its recent traffic (paper §3.7.2).
	LocalityThreshold float64
}

// DefaultAttrs are the attributes files get when the application does not
// customize them.
func DefaultAttrs() FileAttrs {
	return FileAttrs{ReplDeg: 1, Alpha: 0.5, Mode: Linear}
}

// FileEntry is the namespace server's per-file record — Sorrento's inode
// equivalent (paper §3.1). It deliberately contains no physical locations.
type FileEntry struct {
	Path     string
	FileID   ids.FileID
	Version  uint64 // latest committed version of the index segment
	Size     int64  // logical size as of the latest commit
	Attrs    FileAttrs
	Created  time.Time
	Modified time.Time
	// Attached holds small-file data embedded in the namespace entry's
	// index segment record when the whole file fits (≤ MaxAttachSize)...
	// kept in the index segment itself, not here; see layout.Index.
}

// DirEntry is one row of a directory listing.
type DirEntry struct {
	Name  string
	IsDir bool
	Entry *FileEntry // nil for directories
}

// LoadInfo is the load/space state gossiped in heartbeats (paper §3.3).
type LoadInfo struct {
	// Rack labels the node's failure domain for rack-aware replica
	// placement (paper §3.7.2's planned GoogleFS-style extension). Empty
	// means unlabeled.
	Rack string
	// Load is the node's CPU and I/O wait utilization l in [0,1].
	Load float64
	// IOWaitEWMA is the exponentially weighted I/O wait percentage used by
	// the migration trigger.
	IOWaitEWMA float64
	// FreeBytes and TotalBytes describe storage availability.
	FreeBytes  int64
	TotalBytes int64
	// Draining marks a provider that is migrating its segments away ahead
	// of retirement: it still serves reads and open shadows, and it keeps
	// its home-host role, but placement must not choose it for new data.
	Draining bool
}

// UsedFrac returns the fraction of storage consumed.
func (l LoadInfo) UsedFrac() float64 {
	if l.TotalBytes <= 0 {
		return 0
	}
	return 1 - float64(l.FreeBytes)/float64(l.TotalBytes)
}

// OwnerInfo names one replica holder of a segment with its version.
type OwnerInfo struct {
	Node    NodeID
	Version uint64
}

// ---------------------------------------------------------------------------
// Membership (multicast)

// Heartbeat is the periodic multicast announcement from each provider.
type Heartbeat struct {
	From NodeID
	Seq  uint64
	Load LoadInfo
}

// Hello introduces a peer on a freshly dialed transport connection so the
// receiver can learn the dialer's canonical address (TCP peer discovery).
type Hello struct {
	From NodeID
}

// ---------------------------------------------------------------------------
// Namespace server RPCs

// NSLookup resolves a path to its file entry.
type NSLookup struct{ Path string }

// NSLookupResp returns the entry; OK=false when the path does not exist.
type NSLookupResp struct {
	OK    bool
	Entry FileEntry
}

// NSCreate creates a file entry. Fails if it exists.
type NSCreate struct {
	Path   string
	FileID ids.FileID
	Attrs  FileAttrs
}

// NSCreateResp acknowledges creation.
type NSCreateResp struct {
	OK    bool
	Err   string
	Entry FileEntry
}

// NSRemove unlinks a file entry.
type NSRemove struct{ Path string }

// NSRemoveResp returns the removed entry so the client can eagerly delete
// replicas (paper §4.1.1: "Sorrento eagerly removes all replicas when a file
// is unlinked").
type NSRemoveResp struct {
	OK    bool
	Err   string
	Entry FileEntry
	// NotFound marks the failure "path names no file", so an unlink that
	// starts here can tell a missing file from a server-side error.
	NotFound bool
}

// NSMkdir creates a directory.
type NSMkdir struct{ Path string }

// NSRmdir removes an empty directory.
type NSRmdir struct{ Path string }

// NSReadDir lists a directory.
type NSReadDir struct{ Path string }

// NSReadDirResp returns the listing.
type NSReadDirResp struct {
	OK      bool
	Err     string
	Entries []DirEntry
}

// NSGenericResp is a bare ok/err response.
type NSGenericResp struct {
	OK  bool
	Err string
}

// NSCommitBegin asks for approval to commit a new version whose base is
// BaseVersion (paper §3.5 step 7). The server grants a short exclusive
// commit window; a base version older than the latest is a conflict.
type NSCommitBegin struct {
	FileID  ids.FileID
	Path    string
	BaseVer uint64
}

// NSCommitBeginResp grants or rejects the commit window.
type NSCommitBeginResp struct {
	OK        bool
	Conflict  bool   // base version stale: another process committed first
	Blocked   bool   // another commit window is open; retry
	LatestVer uint64 // the server's current latest version
	Ticket    uint64 // commit window ticket to present at complete/abort
}

// NSCommitComplete finalizes a commit, advancing the latest version
// (paper §3.5 step 9).
type NSCommitComplete struct {
	FileID  ids.FileID
	Path    string
	NewVer  uint64
	Ticket  uint64
	NewSize int64
}

// NSCommitAbort releases a commit window without advancing the version.
type NSCommitAbort struct {
	FileID ids.FileID
	Path   string
	Ticket uint64
}

// NSLeaseAcquire requests a write-lock lease so cooperating processes can
// avoid commit conflicts (paper §3.5).
type NSLeaseAcquire struct {
	Path   string
	Owner  string
	TTLSec float64
}

// NSLeaseAcquireResp grants or denies the lease.
type NSLeaseAcquireResp struct {
	OK     bool
	Holder string // current holder when denied
}

// NSLeaseRelease releases a write-lock lease.
type NSLeaseRelease struct {
	Path  string
	Owner string
}

// ---------------------------------------------------------------------------
// Provider segment I/O RPCs

// SegRead asks a node for segment bytes. Clients address the segment's home
// host first; a home host that does not own the segment answers with a
// redirect carrying the owner set (paper §3.4, Figure 7 step 3).
type SegRead struct {
	Seg     ids.SegID
	Version uint64 // 0 means latest
	Offset  int64
	Length  int64
}

// SegReadResp returns data, a redirect, or an error.
type SegReadResp struct {
	OK       bool
	Err      string
	Redirect bool
	Owners   []OwnerInfo // set when Redirect
	Version  uint64
	Data     []byte
	EOF      bool
	// Sum is the CRC32C of Data, computed by the provider after its own
	// block-level verification against commit-time sums, so the client can
	// detect corruption end to end. Zero with empty Data.
	Sum uint32
}

// SegCreate materializes a brand-new segment (version 1) on a provider.
type SegCreate struct {
	Seg     ids.SegID
	Version uint64
	Data    []byte
	// ReplDeg and Home let the owner register the segment and its desired
	// replication degree with the home host.
	ReplDeg int
	// LocalityThreshold propagates the file's locality-driven policy.
	LocalityThreshold float64
	// Direct marks the segment versioning-off: subsequent writes apply in
	// place and replication is disabled (paper §3.5).
	Direct bool
}

// SegCreateResp acknowledges creation.
type SegCreateResp struct {
	OK  bool
	Err string
}

// SegShadow creates a copy-on-write shadow of Base (paper §3.5): a blank
// segment truncated to the base's size whose unmodified regions resolve to
// the base version. Owner identifies the writing session; each session gets
// its own shadow so concurrent writers only conflict at commit time.
type SegShadow struct {
	Owner   string
	Seg     ids.SegID
	BaseVer uint64
	TTLSec  float64 // shadow expiration; must commit or renew before then
	// ReplDeg and LocalityThreshold seed the segment's policies when the
	// shadow creates a brand-new segment.
	ReplDeg           int
	LocalityThreshold float64
	// SizeHint is the new segment's layout capacity (0 when unknown or the
	// segment exists): the provider gives the first write at offset 0 a
	// buffer that large, so a sequential writer never outgrows it.
	SizeHint int64
	// Prepare folds the index leg of a commit into this one request (2PC
	// with the vote piggy-backed on the last write): the shadow is opened or
	// renewed, its whole content becomes Data, and it is prepared exactly as
	// by Prepare2PC. Commit2PC and Abort2PC finish it as usual. The
	// participant keeps version BaseVer until a commit is based past it: if
	// the namespace never records this commit, BaseVer is what it still
	// names.
	Prepare bool
	Data    []byte
}

// SegShadowResp acknowledges shadow creation.
type SegShadowResp struct {
	OK      bool
	Err     string
	NewVer  uint64 // with SegShadow.Prepare: the version the shadow will commit as
	Size    int64
	Created bool // false when a shadow already existed (renewed instead)
}

// SegWrite writes into an open shadow (or directly, for versioning-off
// segments).
type SegWrite struct {
	Owner  string
	Seg    ids.SegID
	Offset int64
	Data   []byte
	Direct bool // versioning disabled: apply in place
}

// SegShadowRead reads back a session's own uncommitted shadow view
// (read-your-writes within a write session).
type SegShadowRead struct {
	Owner  string
	Seg    ids.SegID
	Offset int64
	Length int64
}

// SegWriteResp acknowledges the write.
type SegWriteResp struct {
	OK  bool
	Err string
	N   int
}

// SegRenew resets a shadow's expiration timer.
type SegRenew struct {
	Owner  string
	Seg    ids.SegID
	TTLSec float64
}

// SegDelete removes a segment and all its versions.
type SegDelete struct{ Seg ids.SegID }

// SegPin marks (or releases) a committed segment version as a milestone
// that version consolidation must never reclaim.
type SegPin struct {
	Seg     ids.SegID
	Version uint64 // 0 = latest
	Unpin   bool
}

// SegFetch retrieves a committed segment version (replica sync, repair,
// migration, and a client's index fetch — sent to the home host first).
// With HaveVer set the asker holds that version and takes the changes since
// it when the answering node still keeps them (delta sync, paper §3.6: stale
// replicas "retrieve the updates"), the whole version otherwise.
type SegFetch struct {
	Seg     ids.SegID
	Version uint64 // 0 = latest committed
	HaveVer uint64 // 0 = send the whole version
}

// SegFetchResp carries the version, or — when OK is false — no payload and
// the owners the answering node knows of, as a redirect.
type SegFetchResp struct {
	OK      bool
	Err     string
	Version uint64
	Size    int64 // of the version
	// Delta says the payload is Ranges, the bytes that changed since the
	// request's HaveVer (none when Version ≤ HaveVer); otherwise it is Data,
	// the whole version.
	Delta  bool
	Ranges []DeltaRange
	Data   []byte
	// ReplDeg and LocalityThreshold travel with the payload so the new
	// owner inherits the segment's policies.
	ReplDeg           int
	LocalityThreshold float64
	// Sums are the commit-time per-SumBlock CRC32C sums of the whole
	// version, however it travels. Receivers verify before installing (a
	// delta after applying it) so corruption never propagates, and store
	// these sums (not recomputed ones) with the replica. Nil for direct
	// (versioning-off) segments, which carry no integrity metadata.
	Sums []uint32
	// Owners is the answering node's view of who holds the segment, newest
	// version first: its location-table entries (non-empty on the segment's
	// home host) plus, when it served the payload, itself.
	Owners []OwnerInfo
}

// DeltaRange is one changed byte range shipped by delta replica sync.
type DeltaRange struct {
	Off  int64
	Data []byte
}

// GenericResp is a bare ok/err response shared by simple provider RPCs.
type GenericResp struct {
	OK  bool
	Err string
}

// ---------------------------------------------------------------------------
// Two-phase commit (paper §3.5, Figure 7 step 8)

// Prepare2PC asks a provider to prepare a session's shadow segments for
// commit. Preparing locks each segment's commit slot and fixes the version
// the shadow will commit as.
type Prepare2PC struct {
	Owner string
	Segs  []ids.SegID
}

// Prepare2PCResp votes; PlannedVers[i] is the version Segs[i] will become.
type Prepare2PCResp struct {
	OK          bool
	Err         string
	PlannedVers []uint64
	Sizes       []int64
}

// Commit2PC finalizes prepared shadows, making them the latest committed
// versions. Planned[i] (when present) is the version Segs[i] was prepared
// to become; it makes the commit idempotent — a participant that already
// applied the commit but whose response was lost can recognize the retry
// and acknowledge instead of failing with "no shadow".
type Commit2PC struct {
	Owner   string
	Segs    []ids.SegID
	Planned []uint64
}

// Abort2PC rolls prepared shadows back and discards them.
type Abort2PC struct {
	Owner string
	Segs  []ids.SegID
}

// ---------------------------------------------------------------------------
// Data location (paper §3.4)

// LocEntry is one owner record pushed to a home host.
type LocEntry struct {
	Seg               ids.SegID
	Version           uint64
	Size              int64
	ReplDeg           int
	LocalityThreshold float64
}

// LocRefresh is the periodic (or event-driven) content refresh: an owner
// tells a home host which of its local segments the home tracks.
type LocRefresh struct {
	From    NodeID
	Entries []LocEntry
}

// LocUpdate is the fast-path single-segment update on creation, deletion,
// version advance, or home-host change (paper §3.4.1 event 4).
type LocUpdate struct {
	From    NodeID
	Entry   LocEntry
	Removed bool
}

// LocQuery asks a home host who owns a segment.
type LocQuery struct{ Seg ids.SegID }

// LocQueryResp lists the owners known to the home host.
type LocQueryResp struct {
	OK     bool
	Owners []OwnerInfo
}

// LocProbe is the multicast backup scheme (paper §3.4.2): every provider
// that owns the segment responds directly to the asker.
type LocProbe struct {
	Seg   ids.SegID
	Asker NodeID
	Nonce uint64
}

// LocProbeResp is a unicast answer to a LocProbe.
type LocProbeResp struct {
	Seg     ids.SegID
	Nonce   uint64
	Owner   NodeID
	Version uint64
}

// ---------------------------------------------------------------------------
// Replication control (paper §3.6)

// SyncNotify tells a stale owner to pull the latest version from Source.
type SyncNotify struct {
	Seg     ids.SegID
	Version uint64
	Source  NodeID
}

// ReplicateNotify tells a chosen node to become a new replica site by
// fetching from Source.
//
// Handoff marks a migration-class transfer: the source will ERASE its copy
// once this request acks OK, so the receiver must read-back-verify the
// installed bytes against their checksums before acknowledging. Ordinary
// repair replication leaves Handoff false — a lying media write there is
// caught by the background scrubber, with the source copy still available.
type ReplicateNotify struct {
	Seg               ids.SegID
	Version           uint64
	Source            NodeID
	ReplDeg           int
	LocalityThreshold float64
	Handoff           bool
}

// ---------------------------------------------------------------------------
// Thin client protocol (proxy gateway tier)
//
// Thin clients address files by path and byte offset only: no membership
// tracking, no location cache, no 2PC. A stateless proxy terminates these
// requests and speaks the full Sorrento protocol to providers on the
// client's behalf. Sess names a write session; the proxy keeps only soft
// per-session state (an open shadow handle) that a client can always
// recreate by reopening after a proxy restart.

// PRead reads Length bytes at Offset from the file at Path.
type PRead struct {
	Path    string
	Offset  int64
	Length  int64
	Version uint64 // 0 means latest committed
}

// PReadResp returns the data (short when EOF).
type PReadResp struct {
	OK      bool
	Err     string
	Version uint64
	Data    []byte
	EOF     bool
}

// PWrite writes Data at Offset into the write session Sess for Path. The
// first PWrite of a session opens it on the proxy: with Create set the file
// is created when absent (ReplDeg > 0 overrides the default replication
// degree for new files).
type PWrite struct {
	Sess    string
	Path    string
	Offset  int64
	Data    []byte
	Create  bool
	ReplDeg int
}

// PWriteResp acknowledges the write.
type PWriteResp struct {
	OK  bool
	Err string
	N   int
}

// PCommit atomically publishes session Sess's writes to Path as a new file
// version. Data is durable on providers only after PCommitResp.OK.
type PCommit struct {
	Sess string
	Path string
}

// PCommitResp carries the committed version.
type PCommitResp struct {
	OK      bool
	Err     string
	Version uint64
	Size    int64
}

// PAbort discards session Sess's uncommitted writes to Path.
type PAbort struct {
	Sess string
	Path string
}

// PStat resolves Path to its file entry.
type PStat struct{ Path string }

// PStatResp returns the entry; OK=false with Err when the path is absent.
type PStatResp struct {
	OK    bool
	Err   string
	Entry FileEntry
}

// PMkdir creates a directory.
type PMkdir struct{ Path string }

// PRemove unlinks a file.
type PRemove struct{ Path string }

// ---------------------------------------------------------------------------
// Admin plane (sorrento-admin → proxies and providers)

// AdminDrain marks the receiving provider draining (or aborts a drain when
// Abort is set): placement stops choosing it and a background worker
// migrates its segments to the remaining providers.
type AdminDrain struct {
	Node  NodeID // sanity check: must match the receiver
	Abort bool
}

// AdminStatus asks a provider for its drain/storage state.
type AdminStatus struct{ Node NodeID }

// AdminStatusResp describes the provider's local state.
type AdminStatusResp struct {
	OK         bool
	Err        string
	Node       NodeID
	Draining   bool
	Segments   int // committed segments still held locally
	Shadows    int // open (uncommitted) shadow sessions
	FreeBytes  int64
	TotalBytes int64
}

// AdminRetire asks a drained provider to leave the cluster: it must be
// draining and hold no segments or shadows, otherwise the request fails.
type AdminRetire struct{ Node NodeID }

// ProxyStatus asks a proxy for its serving statistics.
type ProxyStatus struct{ Node NodeID }

// ProxyStatusResp describes a proxy's soft state and traffic counters.
type ProxyStatusResp struct {
	OK        bool
	Err       string
	Node      NodeID
	Sessions  int    // open write sessions (soft state)
	Reads     int    // cached read handles (soft state)
	Requests  uint64 // thin-protocol requests served
	Errors    uint64 // thin-protocol requests failed
	Providers int    // live providers in the proxy's membership view
}
