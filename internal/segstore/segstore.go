// Package segstore implements a storage provider's versioned segment store
// (paper §3.2, §3.5): committed immutable segment versions, copy-on-write
// shadow copies keyed by writing session, shadow expiration, two-phase
// commit participation, version consolidation, and the per-segment access
// bookkeeping (last access time, traffic history) that data migration needs.
//
// Disk costs and capacity are charged against an internal/disk.Disk; the
// store holds segment bytes in memory, standing in for the provider's
// native file system.
package segstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// KeepVersions is how many committed versions are retained per segment;
// older versions are consolidated away (paper §3.5: "only keeps one or a
// few latest stable versions").
const KeepVersions = 2

// KeepChanges is how many versions of change-range metadata are retained.
// Change sets are just offset ranges (the bytes come from the latest
// version), so keeping a deep history is nearly free and lets replicas
// that fell many versions behind catch up with a delta instead of a full
// segment transfer.
const KeepChanges = 64

// Store errors.
var (
	ErrNotFound   = errors.New("segstore: segment not found")
	ErrNoShadow   = errors.New("segstore: no open shadow for session")
	ErrNoVersion  = errors.New("segstore: version not found")
	ErrPrepared   = errors.New("segstore: another session holds the commit slot")
	ErrNotDirect  = errors.New("segstore: segment is versioned; direct writes forbidden")
	ErrIsDirect   = errors.New("segstore: segment is versioning-off; shadows forbidden")
	ErrExists     = errors.New("segstore: segment already exists")
	ErrExpired    = errors.New("segstore: shadow expired")
	ErrUnprepared = errors.New("segstore: shadow not prepared")
	// ErrCorrupt means stored bytes no longer match their commit-time
	// checksums: the media lied. Readers fail over to another replica; the
	// scrubber drops and re-replicates the version.
	ErrCorrupt = errors.New("segstore: data corruption detected")
	// ErrReadFault is an injected transient media read error (fault layer).
	ErrReadFault = errors.New("segstore: media read error")
)

type shadow struct {
	base     uint64 // base version; 0 for a brand-new segment
	size     int64
	ext      extentMap
	expiry   time.Duration // modeled deadline; zero means no expiry
	prepared bool
	planned  uint64 // version fixed at prepare time
}

type segment struct {
	versions map[uint64][]byte
	latest   uint64
	// sums holds per-version commit-time CRC32C block checksums
	// (wire.SumBlock granularity). They are computed from the bytes the
	// writer intended, before any storage fault can touch the stored copy,
	// and are never recomputed from stored data — so every read can detect
	// silent corruption. Nil for direct (versioning-off) segments.
	sums map[uint64][]uint32
	// changes records, per retained version, the byte ranges that version
	// modified — what stale replicas fetch to catch up (delta sync, §3.6).
	changes map[uint64][]rng
	shadows map[string]*shadow
	// commitOwner holds the session that has prepared a shadow; it
	// serializes commits on the segment.
	commitOwner string

	replDeg           int
	localityThreshold float64
	direct            bool // versioning disabled

	// pinned marks milestone versions that consolidation never reclaims
	// (paper §3.5's planned Elephant-style milestones).
	pinned map[uint64]bool
	// based is the newest version a whole-content commit (ReplaceAndPrepare)
	// was based on, which consolidation spares too: while the namespace has
	// not recorded the commits planned past it, it is still the version
	// readers are sent to.
	based uint64

	lastAccess time.Duration
	history    *accessHistory
}

func (s *segment) latestSize() int64 {
	if s.latest == 0 {
		return 0
	}
	return int64(len(s.versions[s.latest]))
}

// Store is one provider's segment store.
type Store struct {
	clock *simtime.Clock
	disk  *disk.Disk
	// cacheBytes is the provider's memory available for caching segment
	// data: synchronous disk reads are charged only once the stored bytes
	// exceed it; writes always flush asynchronously (write-back).
	cacheBytes int64

	mu   sync.Mutex
	segs map[ids.SegID]*segment
	// trackedHistories caps memory for locality tracking (paper §3.7.2:
	// "the latest one thousand accesses for the most recently accessed one
	// thousand segments").
	trackedHistories int

	// faults is the armed storage fault injector (nil until first use); see
	// faults.go. Guarded by mu.
	faults *faultState

	// Integrity counters (atomics: polled by obs gauges without the lock).
	nVerifiedBlocks atomic.Int64
	nDetected       atomic.Int64
	nScrubDropped   atomic.Int64
	nInjectedWrite  atomic.Int64
	nInjectedRead   atomic.Int64
}

// sealVersionLocked records buf as (seg's) version ver together with its
// commit-time sums — the sender's, already checked against buf, or computed
// from buf when sums is nil — routing the stored bytes through the
// write-fault injector. prev is the content being superseded (torn/lost
// writes expose it). The sums always describe the INTENDED bytes: faults
// corrupt data on its way to media, not the separately-kept checksum
// metadata.
//
// It models a BACKGROUND write (replica install, delta sync): a bulk fast
// path that is not read back synchronously, so an armed torn/lost/bit-flip
// fault lands silently and waits for a consumer or the scrubber to notice.
func (st *Store) sealVersionLocked(s *segment, ver uint64, buf, prev []byte, sums []uint32) {
	if s.sums == nil {
		s.sums = make(map[uint64][]uint32)
	}
	if sums == nil {
		sums = wire.SumsOf(buf)
	}
	s.sums[ver] = sums
	s.versions[ver] = st.injectWriteFaultLocked(prev, buf)
}

// sealVerifiedLocked records buf as version ver for FOREGROUND commit writes
// (Create, CommitPrepared), with sums that describe buf (computed from it when
// nil). Unlike sealVersionLocked it does not route the bytes through the
// write-fault injector: the fault model lets a foreground commit write land
// clean, which stands in for a 2PC participant that would read the burst back
// before acknowledging. No read-back pass is made or charged. Without the
// exemption, a write fault striking the sole not-yet-replicated copy of a
// fresh commit would silently destroy acknowledged data with nothing to
// repair from. Background writes (replica install, delta sync) take the
// faults; the scrubber is their backstop.
func (st *Store) sealVerifiedLocked(s *segment, ver uint64, buf []byte, sums []uint32) {
	if s.sums == nil {
		s.sums = make(map[uint64][]uint32)
	}
	if sums == nil {
		sums = wire.SumsOf(buf)
	}
	s.sums[ver] = sums
	s.versions[ver] = buf
}

// MaxTrackedHistories bounds how many segments keep access histories.
const MaxTrackedHistories = 1000

// DefaultCacheBytes approximates a paper-era storage node's memory
// available for file caching.
const DefaultCacheBytes = 512 << 20

// New returns an empty store whose I/O is charged to d.
func New(clock *simtime.Clock, d *disk.Disk) *Store {
	return &Store{clock: clock, disk: d, cacheBytes: DefaultCacheBytes, segs: make(map[ids.SegID]*segment)}
}

// SetCacheBytes overrides the cache threshold (scaled experiments).
func (st *Store) SetCacheBytes(n int64) { st.cacheBytes = n }

// chargeRead charges a synchronous disk read when the working set exceeds
// the cache.
func (st *Store) chargeRead(n int64) {
	if st.disk.Used() > st.cacheBytes {
		st.disk.Read(n)
	}
}

// Disk returns the underlying disk (for load/space reporting).
func (st *Store) Disk() *disk.Disk { return st.disk }

// ShadowCount returns the number of open shadow sessions across all
// segments (observability: each is an uncommitted write session holding a
// commit slot).
func (st *Store) ShadowCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.segs {
		n += len(s.shadows)
	}
	return n
}

// Create materializes a segment at version 1 with the given content. It is
// used for initial creation and for versioning-off segments (direct=true).
func (st *Store) Create(seg ids.SegID, data []byte, replDeg int, locThresh float64, direct bool) error {
	if err := st.disk.Alloc(int64(len(data))); err != nil {
		return err
	}
	st.disk.WriteAsync(int64(len(data)))
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.segs[seg]; ok {
		st.disk.Free(int64(len(data)))
		return ErrExists
	}
	s := &segment{
		versions:          make(map[uint64][]byte),
		latest:            1,
		shadows:           make(map[string]*shadow),
		replDeg:           replDeg,
		localityThreshold: locThresh,
		direct:            direct,
		lastAccess:        st.clock.Now(),
	}
	buf := append([]byte(nil), data...)
	if direct {
		// Direct segments are patched in place and carry no sums.
		s.versions[1] = buf
	} else {
		st.sealVerifiedLocked(s, 1, buf, nil)
	}
	st.segs[seg] = s
	return nil
}

// Install stores (or replaces) a specific committed version of a segment —
// the receive path of replica sync, repair, and migration. Installing an
// older version than the local latest is a no-op. sums are the sender's
// commit-time sums, which the caller checked data against; they are stored
// as they are. Nil sums are computed from data.
func (st *Store) Install(seg ids.SegID, ver uint64, data []byte, sums []uint32, replDeg int, locThresh float64) error {
	if ver == 0 {
		return fmt.Errorf("segstore: Install version 0")
	}
	if err := st.disk.Alloc(int64(len(data))); err != nil {
		return err
	}
	st.disk.WriteAsync(int64(len(data)))
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		s = st.newSegmentLocked(seg, replDeg, locThresh)
	}
	if ver <= s.latest {
		st.disk.Free(int64(len(data)))
		return nil
	}
	st.sealVersionLocked(s, ver, append([]byte(nil), data...), s.versions[s.latest], sums)
	s.latest = ver
	st.consolidateLocked(s)
	return nil
}

// Shadow opens (or renews) a copy-on-write shadow of the segment's baseVer
// for the given session. For a new segment (not yet present) the base is
// empty and the segment record is created with the supplied policies. It is
// ShadowSized without a size hint.
func (st *Store) Shadow(owner string, seg ids.SegID, baseVer uint64, ttl time.Duration, replDeg int, locThresh float64) (created bool, size int64, err error) {
	return st.ShadowSized(owner, seg, baseVer, 0, ttl, replDeg, locThresh)
}

// ShadowSized is Shadow for a writer that knows how large the segment can
// grow (its layout capacity): a shadow it opens gives the first write at
// offset 0 a buffer of sizeHint bytes, capped at the largest pooled class,
// so that a sequential writer never outgrows it. Renewing an open shadow
// leaves its hint as it was.
func (st *Store) ShadowSized(owner string, seg ids.SegID, baseVer uint64, sizeHint int64, ttl time.Duration, replDeg int, locThresh float64) (created bool, size int64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		if baseVer != 0 {
			return false, 0, ErrNotFound
		}
		s = st.newSegmentLocked(seg, replDeg, locThresh)
	}
	if s.direct {
		return false, 0, ErrIsDirect
	}
	if sh, ok := s.shadows[owner]; ok {
		sh.expiry = st.expiryLocked(ttl)
		return false, sh.size, nil
	}
	if baseVer == 0 {
		baseVer = s.latest
	}
	var baseSize int64
	if baseVer != 0 {
		b, ok := s.versions[baseVer]
		if !ok {
			return false, 0, ErrNoVersion
		}
		baseSize = int64(len(b))
	}
	s.shadows[owner] = &shadow{
		base:   baseVer,
		size:   baseSize,
		ext:    extentMap{hint: int(min(max(sizeHint, 0), 1<<maxPoolClass))},
		expiry: st.expiryLocked(ttl),
	}
	return true, baseSize, nil
}

// newSegmentLocked registers a record for a segment this store has not seen:
// no committed version yet, policies as supplied.
func (st *Store) newSegmentLocked(seg ids.SegID, replDeg int, locThresh float64) *segment {
	s := &segment{
		versions:          make(map[uint64][]byte),
		shadows:           make(map[string]*shadow),
		replDeg:           replDeg,
		localityThreshold: locThresh,
		lastAccess:        st.clock.Now(),
	}
	st.segs[seg] = s
	return s
}

func (st *Store) expiryLocked(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return 0
	}
	return st.clock.Now() + ttl
}

func (st *Store) shadowLocked(owner string, seg ids.SegID) (*segment, *shadow, error) {
	s, ok := st.segs[seg]
	if !ok {
		return nil, nil, ErrNotFound
	}
	sh, ok := s.shadows[owner]
	if !ok {
		return nil, nil, ErrNoShadow
	}
	return s, sh, nil
}

// WriteShadow writes into an open shadow, growing it when the write extends
// past the current size.
func (st *Store) WriteShadow(owner string, seg ids.SegID, off int64, data []byte) (int, error) {
	st.mu.Lock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		st.mu.Unlock()
		return 0, err
	}
	if sh.prepared {
		st.mu.Unlock()
		return 0, ErrPrepared
	}
	// Reserve the newly covered bytes before touching the shadow, so a write
	// the disk refuses leaves content and accounting exactly as they were.
	end := off + int64(len(data))
	if err := st.disk.Alloc(int64(len(data)) - sh.ext.coveredWithin(off, end)); err != nil {
		st.mu.Unlock()
		return 0, err
	}
	sh.ext.write(off, data)
	if end > sh.size {
		sh.size = end
	}
	s.lastAccess = st.clock.Now()
	st.mu.Unlock()
	st.disk.WriteAsync(int64(len(data)))
	return len(data), nil
}

// ReadShadow reads the session's shadow view (read-your-writes).
func (st *Store) ReadShadow(owner string, seg ids.SegID, off, n int64) ([]byte, error) {
	st.mu.Lock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	if off >= sh.size {
		st.mu.Unlock()
		return nil, nil
	}
	if off+n > sh.size {
		n = sh.size - off
	}
	dst := make([]byte, n)
	var base []byte
	if sh.base != 0 {
		base = s.versions[sh.base]
	}
	sh.ext.read(off, dst, base)
	s.lastAccess = st.clock.Now()
	st.mu.Unlock()
	st.chargeRead(n)
	return dst, nil
}

// Renew resets a shadow's expiration timer (paper §3.5: the application
// must commit or reset the timer before it expires).
func (st *Store) Renew(owner string, seg ids.SegID, ttl time.Duration) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		return err
	}
	sh.expiry = st.expiryLocked(ttl)
	return nil
}

// Drop discards an uncommitted shadow.
func (st *Store) Drop(owner string, seg ids.SegID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		return err
	}
	st.dropShadowLocked(seg, s, owner, sh)
	return nil
}

func (st *Store) dropShadowLocked(seg ids.SegID, s *segment, owner string, sh *shadow) {
	if s.commitOwner == owner {
		s.commitOwner = ""
	}
	st.disk.Free(sh.ext.writtenBytes())
	sh.ext.release()
	delete(s.shadows, owner)
	// A brand-new segment whose only shadow is dropped disappears.
	if s.latest == 0 && len(s.shadows) == 0 {
		delete(st.segs, seg)
	}
}

// Prepare is 2PC phase one: it validates the shadow, locks the segment's
// commit slot, and fixes the version the shadow will commit as.
func (st *Store) Prepare(owner string, seg ids.SegID) (plannedVer uint64, size int64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		return 0, 0, err
	}
	if err := st.prepareLocked(seg, s, owner, sh); err != nil {
		return 0, 0, err
	}
	return sh.planned, sh.size, nil
}

// prepareLocked is phase one on an open shadow: an expired shadow is dropped,
// another session's hold on the commit slot is respected, and otherwise the
// slot is taken and the planned version fixed. Preparing an already-prepared
// shadow again is idempotent (same planned version): a coordinator whose
// prepare response was lost can safely retry the whole round.
func (st *Store) prepareLocked(seg ids.SegID, s *segment, owner string, sh *shadow) error {
	if sh.expiry != 0 && st.clock.Now() > sh.expiry {
		st.dropShadowLocked(seg, s, owner, sh)
		return ErrExpired
	}
	if s.commitOwner != "" && s.commitOwner != owner {
		return ErrPrepared
	}
	if !sh.prepared {
		s.commitOwner = owner
		sh.prepared = true
		sh.planned = s.latest + 1
	}
	return nil
}

// ReplaceAndPrepare is the whole shadow life of a segment that is rewritten
// in full at every commit (a file's index segment), in one step: it opens
// the session's shadow of seg or renews the one it has, makes data the
// shadow's entire content, and prepares it as Prepare does. It fails as
// Prepare fails (an expired shadow is dropped) and then leaves everything
// else as it was. Repeating it is safe: a shadow this session already
// prepared keeps its commit slot and planned version and takes the newest
// data, so a coordinator may resend after a lost reply, or re-plan with
// other bytes after a lost abort. baseVer is the version the session read
// (0 for none); the newest one given stays kept, as a pinned version does.
func (st *Store) ReplaceAndPrepare(owner string, seg ids.SegID, baseVer uint64, data []byte, ttl time.Duration, replDeg int, locThresh float64) (plannedVer uint64, err error) {
	size := int64(len(data))
	if err := st.disk.Alloc(size); err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		s = st.newSegmentLocked(seg, replDeg, locThresh)
	}
	sh, open := s.shadows[owner]
	if !open {
		sh = &shadow{base: s.latest}
	}
	if s.direct {
		err = ErrIsDirect
	} else {
		err = st.prepareLocked(seg, s, owner, sh)
	}
	if err != nil {
		st.disk.Free(size)
		return 0, err
	}
	s.shadows[owner] = sh
	s.based = max(s.based, baseVer)
	sh.expiry = st.expiryLocked(ttl)
	// Cutting at 0 hides the base for good; the one extent is the content.
	st.disk.Free(sh.ext.truncate(0))
	sh.ext.write(0, data)
	sh.size = size
	s.lastAccess = st.clock.Now()
	st.disk.WriteAsync(size)
	return sh.planned, nil
}

// CommitPrepared is 2PC phase two: the shadow becomes the latest committed
// version. The in-memory index structure is flushed to disk as part of the
// commit (paper §3.5).
func (st *Store) CommitPrepared(owner string, seg ids.SegID) (ver uint64, size int64, err error) {
	st.mu.Lock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		st.mu.Unlock()
		return 0, 0, err
	}
	if !sh.prepared {
		st.mu.Unlock()
		return 0, 0, ErrUnprepared
	}
	var base []byte
	if sh.base != 0 {
		base = s.versions[sh.base]
	}
	written := sh.ext.writtenBytes()
	var ch []rng
	for _, e := range sh.ext.exts {
		ch = append(ch, rng{off: e.off, end: e.end()})
	}
	// A size change (growth or truncation) invalidates pure range deltas;
	// record the tail as changed so ApplyDelta reproduces the new size.
	if sh.base != 0 && sh.size != int64(len(base)) {
		lo := sh.size
		if int64(len(base)) < lo {
			lo = int64(len(base))
		}
		ch = append(ch, rng{off: lo, end: sh.size})
	}
	var buf []byte
	var sums []uint32
	if e := sh.ext.exts; len(e) == 1 && e[0].off == 0 && e[0].end() == sh.size {
		// One extent is the whole content, so the base contributes nothing,
		// and its running sums are the version's (finished by commitSums).
		// With little enough slack the shadow's buffer IS the version: it
		// leaves the pool for good (readers alias versions; nothing may ever
		// poolPut one), which the slack bound keeps to at most 1.125x a
		// version's bytes held.
		sums = sh.ext.commitSums()
		if int64(cap(e[0].data))-sh.size <= sh.size/8 {
			buf = e[0].data[:sh.size:sh.size]
			sh.ext.exts = nil
		}
	}
	if buf == nil {
		buf = make([]byte, sh.size)
		sh.ext.read(0, buf, base)
		sh.ext.release()
	}
	st.sealVerifiedLocked(s, sh.planned, buf, sums)
	if s.changes == nil {
		s.changes = make(map[uint64][]rng)
	}
	s.changes[sh.planned] = mergeRanges(ch)
	s.latest = sh.planned
	s.commitOwner = ""
	delete(s.shadows, owner)
	st.consolidateLocked(s)
	s.lastAccess = st.clock.Now()
	ver, size = sh.planned, sh.size
	st.mu.Unlock()

	// Account: the committed version occupies size; the shadow's extents
	// are released.
	if size > written {
		if err := st.disk.Alloc(size - written); err != nil {
			// Space was validated as the shadow grew; a failure here means
			// concurrent pressure. The commit stands; report it anyway.
			return ver, size, nil
		}
	} else if written > size {
		st.disk.Free(written - size)
	}
	st.disk.WriteAsync(indexFlushBytes)
	return ver, size, nil
}

// indexFlushBytes approximates flushing the shadow's index structure.
const indexFlushBytes = 4096

// AbortPrepared is 2PC rollback: the shadow is discarded.
func (st *Store) AbortPrepared(owner string, seg ids.SegID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, sh, err := st.shadowLocked(owner, seg)
	if err != nil {
		return err
	}
	st.dropShadowLocked(seg, s, owner, sh)
	return nil
}

// consolidateLocked drops versions beyond KeepVersions, except pinned ones
// and the newest one a commit was based on.
func (st *Store) consolidateLocked(s *segment) {
	for ver, data := range s.versions {
		if ver+KeepVersions <= s.latest && !s.pinned[ver] && ver != s.based {
			st.disk.Free(int64(len(data)))
			delete(s.versions, ver)
			delete(s.sums, ver)
		}
	}
	for ver := range s.changes {
		if ver+KeepChanges <= s.latest {
			delete(s.changes, ver)
		}
	}
}

// Read returns up to n bytes of a committed version (0 = latest) starting
// at off, along with the version served. It is ReadSum without the sum, and
// nothing in the program calls it: it stays because the benchmark's segstore
// probe (benchmark/probes.go, a separate frozen module) does.
func (st *Store) Read(seg ids.SegID, ver uint64, off, n int64) ([]byte, uint64, error) {
	data, ver, _, err := st.ReadSum(seg, ver, off, n)
	return data, ver, err
}

// ReadSum is Read that also returns the CRC32C of the bytes served. For a
// versioned segment the sum comes out of the same pass that verified those
// bytes against the commit-time block sums, so it vouches only for bytes
// that passed; a direct segment has no commit-time sums, and its sum is taken
// over the served copy.
func (st *Store) ReadSum(seg ids.SegID, ver uint64, off, n int64) ([]byte, uint64, uint32, error) {
	st.mu.Lock()
	s, ok := st.segs[seg]
	if !ok || s.latest == 0 {
		st.mu.Unlock()
		return nil, 0, 0, ErrNotFound
	}
	if ver == 0 {
		ver = s.latest
	}
	data, ok := s.versions[ver]
	if !ok {
		st.mu.Unlock()
		return nil, 0, 0, ErrNoVersion
	}
	if st.injectReadFaultLocked() {
		st.mu.Unlock()
		return nil, 0, 0, ErrReadFault
	}
	if off >= int64(len(data)) {
		st.mu.Unlock()
		return nil, ver, 0, nil
	}
	if off+n > int64(len(data)) {
		n = int64(len(data)) - off
	}
	// Verify the checksum blocks covering the requested range before
	// serving. A mismatch fails the read — the client fails over to another
	// replica and the scrubber will drop and re-replicate the version.
	var sum uint32
	if !s.direct {
		var bad int
		if bad, sum = wire.VerifyRange(data, s.sums[ver], off, n); bad >= 0 {
			st.nDetected.Add(1)
			st.mu.Unlock()
			return nil, 0, 0, ErrCorrupt
		}
		st.nVerifiedBlocks.Add((off+n-1)/wire.SumBlock - off/wire.SumBlock + 1)
	}
	// Committed versions of versioned segments are immutable once built
	// (Install and ApplyDelta create fresh buffers; CommitPrepared does too,
	// or adopts a shadow buffer that then leaves the pool for good), so the
	// response aliases the stored bytes instead of copying them —
	// receivers must not mutate message payloads (wire convention). Direct
	// segments are the exception: WriteDirect patches the version in place,
	// so they serve copies.
	direct := s.direct
	var out []byte
	if direct {
		out = append([]byte(nil), data[off:off+n]...)
	} else {
		out = data[off : off+n : off+n]
	}
	s.lastAccess = st.clock.Now()
	st.mu.Unlock()
	if direct {
		sum = wire.SumOf(out)
	}
	st.chargeRead(n)
	return out, ver, sum, nil
}

// Fetch returns committed version ver (0 = latest) of seg with the
// segment's policies and the version's commit-time sums, for a replica
// transfer (sync, repair, migration) or a client's index fetch. When haveVer
// > 0 and every change set in (haveVer, ver] is still kept, the answer is a
// delta (paper §3.6: stale replicas "retrieve the updates"): the ranges
// changed since haveVer, none when the asker is current, which the receiver
// applies and verifies against the sums. Otherwise it is the whole version,
// verified here before it leaves so corruption never propagates. Payload and
// sums alias stored memory and must not be mutated; a direct segment's
// payload is a copy. OK and Owners are left to the caller.
func (st *Store) Fetch(seg ids.SegID, ver, haveVer uint64) (wire.SegFetchResp, error) {
	st.mu.Lock()
	s, ok := st.segs[seg]
	if !ok || s.latest == 0 {
		st.mu.Unlock()
		return wire.SegFetchResp{}, ErrNotFound
	}
	if ver == 0 {
		ver = s.latest
	}
	d, ok := s.versions[ver]
	if !ok {
		st.mu.Unlock()
		return wire.SegFetchResp{}, ErrNoVersion
	}
	r := wire.SegFetchResp{Version: ver, Size: int64(len(d)), ReplDeg: s.replDeg, LocalityThreshold: s.localityThreshold, Sums: s.sums[ver]}
	if haveVer > 0 {
		r.Ranges, r.Delta = changedSinceLocked(s, d, haveVer, ver)
	}
	if r.Delta {
		st.mu.Unlock()
		var n int64
		for _, c := range r.Ranges {
			n += int64(len(c.Data))
		}
		if n > 0 {
			st.chargeRead(n)
		}
		return r, nil
	}
	if st.injectReadFaultLocked() {
		st.mu.Unlock()
		return wire.SegFetchResp{}, ErrReadFault
	}
	if !s.direct {
		if wire.VerifySums(d, r.Sums) >= 0 {
			st.nDetected.Add(1)
			st.mu.Unlock()
			return wire.SegFetchResp{}, ErrCorrupt
		}
		st.nVerifiedBlocks.Add(int64(len(r.Sums)))
	}
	// Same zero-copy rule as Read: immutable unless the segment is direct.
	r.Data = d[:len(d):len(d)]
	if s.direct {
		r.Data = append([]byte(nil), d...)
	}
	st.mu.Unlock()
	st.chargeRead(r.Size)
	return r, nil
}

// WriteDirect applies an in-place write to a versioning-off segment.
func (st *Store) WriteDirect(seg ids.SegID, off int64, data []byte) error {
	st.mu.Lock()
	s, ok := st.segs[seg]
	if !ok {
		st.mu.Unlock()
		return ErrNotFound
	}
	if !s.direct {
		st.mu.Unlock()
		return ErrNotDirect
	}
	buf := s.versions[s.latest]
	end := off + int64(len(data))
	var grown int64
	if end > int64(len(buf)) {
		grown = end - int64(len(buf))
		nb := make([]byte, end)
		copy(nb, buf)
		buf = nb
	}
	copy(buf[off:end], data)
	s.versions[s.latest] = buf
	s.lastAccess = st.clock.Now()
	st.mu.Unlock()
	if grown > 0 {
		if err := st.disk.Alloc(grown); err != nil {
			return err
		}
	}
	st.disk.WriteAsync(int64(len(data)))
	return nil
}

// Delete removes a segment and all versions and shadows.
func (st *Store) Delete(seg ids.SegID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return ErrNotFound
	}
	var freed int64
	for _, d := range s.versions {
		freed += int64(len(d))
	}
	for _, sh := range s.shadows {
		freed += sh.ext.writtenBytes()
		sh.ext.release()
	}
	st.disk.Free(freed)
	delete(st.segs, seg)
	return nil
}

// Stat describes a segment's local state.
type Stat struct {
	Present   bool
	Version   uint64
	Size      int64
	HasShadow bool
	Direct    bool
	ReplDeg   int
}

// Stat returns the segment's local state.
func (st *Store) Stat(seg ids.SegID) Stat {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return Stat{}
	}
	return Stat{
		Present:   s.latest != 0,
		Version:   s.latest,
		Size:      s.latestSize(),
		HasShadow: len(s.shadows) > 0,
		Direct:    s.direct,
		ReplDeg:   s.replDeg,
	}
}

// List returns location entries for all committed local segments, for the
// periodic content refresh (paper §3.4.1 event 1).
func (st *Store) List() []wire.LocEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]wire.LocEntry, 0, len(st.segs))
	for seg, s := range st.segs {
		if s.latest == 0 {
			continue
		}
		out = append(out, wire.LocEntry{
			Seg:               seg,
			Version:           s.latest,
			Size:              s.latestSize(),
			ReplDeg:           s.replDeg,
			LocalityThreshold: s.localityThreshold,
		})
	}
	return out
}

// LastAccess returns the segment's last access time on the modeled
// timeline — its "temperature" (paper §3.7.1). ok is false for unknown
// segments.
func (st *Store) LastAccess(seg ids.SegID) (time.Duration, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return 0, false
	}
	return s.lastAccess, true
}

// ExpireShadows drops shadows whose expiration has passed and that are not
// mid-2PC, returning how many were reclaimed (paper §3.5: garbage left by
// failed clients).
func (st *Store) ExpireShadows() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.clock.Now()
	n := 0
	for seg, s := range st.segs {
		for owner, sh := range s.shadows {
			if sh.expiry != 0 && now > sh.expiry && !sh.prepared {
				st.dropShadowLocked(seg, s, owner, sh)
				n++
			}
		}
	}
	return n
}

// CrashRecover models a provider restart over the same disk: committed
// versions are durable and survive, while volatile state — open shadows,
// prepared-but-uncommitted 2PC state, commit-slot locks — is lost. The
// crash window can also tear a committed write that was still in the
// write-back cache, so recovery re-validates every committed version
// against its commit-time sums instead of trusting the store blindly;
// versions that fail are dropped (the repair path re-pulls them from
// healthy replicas). It returns the number of shadow sessions discarded
// and the number of corrupt versions dropped.
func (st *Store) CrashRecover() (shadows, corrupt int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for seg, s := range st.segs {
		for owner, sh := range s.shadows {
			st.dropShadowLocked(seg, s, owner, sh)
			shadows++
		}
		s.commitOwner = ""
		corrupt += st.dropCorruptLocked(seg, s)
	}
	return shadows, corrupt
}

// dropCorruptLocked verifies every committed version of s, dropping those
// whose bytes no longer match their sums and repairing the latest pointer.
// A segment left with no versions (and no shadows) disappears so the repair
// machinery re-pulls it cleanly. Returns the number of versions dropped.
func (st *Store) dropCorruptLocked(seg ids.SegID, s *segment) int {
	if s.direct || s.latest == 0 {
		return 0
	}
	dropped := 0
	var freed int64
	for ver, data := range s.versions {
		if wire.VerifySums(data, s.sums[ver]) < 0 {
			continue
		}
		st.nDetected.Add(1)
		st.nScrubDropped.Add(1)
		freed += int64(len(data))
		delete(s.versions, ver)
		delete(s.sums, ver)
		delete(s.changes, ver)
		dropped++
	}
	if dropped == 0 {
		return 0
	}
	st.disk.Free(freed)
	if _, ok := s.versions[s.latest]; !ok {
		// The latest version was corrupt: fall back to the newest surviving
		// one. Change-set metadata may now reference dropped versions, so
		// wipe it — delta sync falls back to full transfers.
		s.latest = 0
		for ver := range s.versions {
			if ver > s.latest {
				s.latest = ver
			}
		}
		s.changes = nil
	}
	if s.latest == 0 && len(s.shadows) == 0 {
		delete(st.segs, seg)
	}
	return dropped
}

// ScrubSegment verifies all committed versions of one segment against their
// commit-time sums, dropping any that fail. It returns the bytes scanned,
// the number of corrupt versions dropped, and whether the latest committed
// version survived (false tells the scrubber to trigger a repair pull).
//
// The scan is NOT charged to the disk arm here: a scrubber sweeps media
// mostly sequentially, so per-segment charges would bill one random seek
// per segment and saturate the arm on small-segment stores. The caller
// charges one sequential read of the summed scanned bytes per batch
// (see provider.scrubTick).
func (st *Store) ScrubSegment(seg ids.SegID) (scanned int64, dropped int, present bool) {
	st.mu.Lock()
	s, ok := st.segs[seg]
	if !ok || s.latest == 0 {
		st.mu.Unlock()
		return 0, 0, false
	}
	if s.direct {
		st.mu.Unlock()
		return 0, 0, true // no integrity metadata to check
	}
	before := s.latest
	for _, data := range s.versions {
		scanned += int64(len(data))
	}
	dropped = st.dropCorruptLocked(seg, s)
	if dropped == 0 {
		blocks := int64(0)
		for _, sums := range s.sums {
			blocks += int64(len(sums))
		}
		st.nVerifiedBlocks.Add(blocks)
	}
	present = s.latest == before
	st.mu.Unlock()
	return scanned, dropped, present
}

// PinVersion marks a committed version as a milestone: consolidation will
// never reclaim it, so it stays readable forever (paper §3.5 anticipates
// such Elephant-style milestones).
func (st *Store) PinVersion(seg ids.SegID, ver uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return ErrNotFound
	}
	if ver == 0 {
		ver = s.latest
	}
	if _, ok := s.versions[ver]; !ok {
		return ErrNoVersion
	}
	if s.pinned == nil {
		s.pinned = make(map[uint64]bool)
	}
	s.pinned[ver] = true
	return nil
}

// UnpinVersion releases a milestone; the version becomes reclaimable at the
// next consolidation.
func (st *Store) UnpinVersion(seg ids.SegID, ver uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return ErrNotFound
	}
	delete(s.pinned, ver)
	return nil
}

// Segments returns the IDs of all committed local segments.
func (st *Store) Segments() []ids.SegID {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ids.SegID, 0, len(st.segs))
	for seg, s := range st.segs {
		if s.latest != 0 {
			out = append(out, seg)
		}
	}
	return out
}

// Len returns the number of committed segments.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.segs {
		if s.latest != 0 {
			n++
		}
	}
	return n
}
