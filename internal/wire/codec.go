package wire

// Hand-rolled binary codec for every wire message: explicit per-type
// functions, allocation-free on encode (append into a caller buffer, exact
// EncodedSize for pre-sizing from internal/bufpool); decode allocates the
// boxed message plus one copy per string, payload and slice field, so the
// result never aliases the input buffer (DecodeReplyInto lands a
// SegReadResp's payload in a buffer of the caller's instead, and
// DecodeEnvelopeView leaves every []byte payload in the input). It is shared
// by both transports: the TCP transport frames real bytes with it, and the
// simulated fabric charges NIC time for exactly the bytes it would produce
// (SizeOf).
//
// Wire format: 2-byte little-endian type tag, then the message's fields in
// declaration order. Fixed-width little-endian integers, IEEE-754 bit
// patterns for floats, u32 length prefixes for strings/byte slices/element
// counts, raw 16 bytes for SegIDs, and a presence byte for pointers and
// times. Tag values are stable: new types append to the end of the list.
//
// A zero-length slice or string decodes as nil/empty, the same equivalence
// encoding/gob applies to omitted zero fields; codec_test.go keeps gob as its
// reference implementation and proves the two agree on every message type.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ids"
)

// Message type tags. Stable on the wire: append, never reorder.
const (
	tagInvalid uint16 = iota
	tagHeartbeat
	tagHello
	tagNSLookup
	tagNSLookupResp
	tagNSCreate
	tagNSCreateResp
	tagNSRemove
	tagNSRemoveResp
	tagNSMkdir
	tagNSRmdir
	tagNSReadDir
	tagNSReadDirResp
	tagNSGenericResp
	tagNSCommitBegin
	tagNSCommitBeginResp
	tagNSCommitComplete
	tagNSCommitAbort
	tagNSLeaseAcquire
	tagNSLeaseAcquireResp
	tagNSLeaseRelease
	tagSegRead
	tagSegReadResp
	tagSegCreate
	tagSegCreateResp
	tagSegShadow
	tagSegShadowResp
	tagSegWrite
	tagSegWriteResp
	tagSegShadowRead
	_ // retired (shadow truncate); the slot stays reserved
	tagSegRenew
	_ // retired (shadow drop, never sent)
	tagSegDelete
	tagSegPin
	_ // retired (segment stat, never sent)
	_
	tagSegFetch
	tagSegFetchResp
	tagGenericResp
	_ // retired (delta fetch, folded into SegFetch)
	_
	tagPrepare2PC
	tagPrepare2PCResp
	tagCommit2PC
	tagAbort2PC
	tagLocRefresh
	tagLocUpdate
	tagLocQuery
	tagLocQueryResp
	tagLocProbe
	tagLocProbeResp
	tagSyncNotify
	tagReplicateNotify
	_ // retired (explicit migrate request, never sent)
	tagPRead
	tagPReadResp
	tagPWrite
	tagPWriteResp
	tagPCommit
	tagPCommitResp
	tagPAbort
	tagPStat
	tagPStatResp
	tagPMkdir
	tagPRemove
	tagAdminDrain
	tagAdminStatus
	tagAdminStatusResp
	tagAdminRetire
	tagProxyStatus
	tagProxyStatusResp
	tagMax
)

// marshaler is implemented (with value receivers, so both T and *T satisfy
// it) by every registered message type.
type marshaler interface {
	wireTag() uint16
	encodedSize() int // fields only, excluding the 2-byte tag
	appendWire(b []byte) []byte
}

// unmarshaler is the pointer-receiver decode side; decodeWire fills a zero
// value.
type unmarshaler interface {
	marshaler
	decodeWire(r *wireReader)
}

// ---------------------------------------------------------------------------
// Exported API

// Encodable reports whether msg has a hand-rolled binary codec (every
// registered wire message type, as value or pointer).
func Encodable(msg any) bool {
	_, ok := msg.(marshaler)
	return ok
}

// EncodedSize returns the exact number of bytes Append would produce for
// msg (including the type tag), computed without encoding or allocating.
func EncodedSize(msg any) (int, bool) {
	m, ok := msg.(marshaler)
	if !ok {
		return 0, false
	}
	return 2 + m.encodedSize(), true
}

// Append appends msg's binary encoding to b and returns the extended slice.
// It allocates nothing beyond what append itself may grow; pre-size b with
// EncodedSize (e.g. from bufpool) for zero-allocation encoding.
func Append(b []byte, msg any) ([]byte, error) {
	m, ok := msg.(marshaler)
	if !ok {
		return b, fmt.Errorf("wire: no binary codec for %T", msg)
	}
	b = appendU16(b, m.wireTag())
	return m.appendWire(b), nil
}

// Decode decodes one message produced by Append. The result is
// self-contained: payload bytes are copied out of data, so the caller may
// recycle data immediately. Trailing bytes are an error.
func Decode(data []byte) (any, error) {
	return decodeWhole(&wireReader{b: data})
}

// decodeWhole decodes the one message r holds; trailing bytes are an error.
func decodeWhole(r *wireReader) (any, error) {
	msg, err := decodeTagged(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %T", len(r.b)-r.off, msg)
	}
	return msg, nil
}

// Messages returns a zero value of every registered message type, in tag
// order. Tests iterate it to prove codec properties hold for all types.
func Messages() []any {
	out := make([]any, 0, tagMax-1)
	for tag := uint16(1); tag < tagMax; tag++ {
		if codecTable[tag].zero != nil {
			out = append(out, codecTable[tag].zero())
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Envelope framing (shared by the TCP request path and UDP multicast)

// AppendEnvelope appends a call envelope: sender, span context, message.
func AppendEnvelope(b []byte, from NodeID, trace, span uint64, msg any) ([]byte, error) {
	b = appendStr(b, string(from))
	b = appendU64(b, trace)
	b = appendU64(b, span)
	return Append(b, msg)
}

// EnvelopeSize is the exact size AppendEnvelope would produce.
func EnvelopeSize(from NodeID, msg any) (int, bool) {
	n, ok := EncodedSize(msg)
	if !ok {
		return 0, false
	}
	return 4 + len(from) + 8 + 8 + n, true
}

// DecodeEnvelope decodes a call envelope. The message is self-contained
// (payloads copied), so the caller may recycle data.
func DecodeEnvelope(data []byte) (from NodeID, trace, span uint64, msg any, err error) {
	return decodeEnvelope(wireReader{b: data})
}

// DecodeEnvelopeView is DecodeEnvelope for a caller that keeps data intact
// and unchanged for as long as it uses the message: every []byte field
// aliases data instead of being copied out of it (strings and every other
// slice are still copies). The TCP server decodes requests this way and
// recycles the frame only after the handler has returned and the reply is
// written, so a request payload is copied once, by whatever keeps it.
func DecodeEnvelopeView(data []byte) (from NodeID, trace, span uint64, msg any, err error) {
	return decodeEnvelope(wireReader{b: data, view: true})
}

func decodeEnvelope(r wireReader) (from NodeID, trace, span uint64, msg any, err error) {
	from = NodeID(r.str())
	trace = r.u64()
	span = r.u64()
	msg, err = decodeTagged(&r)
	if err != nil {
		return "", 0, 0, nil, err
	}
	if r.off != len(r.b) {
		return "", 0, 0, nil, fmt.Errorf("wire: %d trailing bytes in envelope", len(r.b)-r.off)
	}
	return from, trace, span, msg, nil
}

// AppendReply appends a reply envelope: error string plus optional message
// (nil msg encodes as absent, e.g. an error-only reply).
func AppendReply(b []byte, msg any, errStr string) ([]byte, error) {
	b = appendStr(b, errStr)
	if msg == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	return Append(b, msg)
}

// ReplySize is the exact size AppendReply would produce.
func ReplySize(msg any, errStr string) (int, bool) {
	n := 4 + len(errStr) + 1
	if msg == nil {
		return n, true
	}
	m, ok := EncodedSize(msg)
	if !ok {
		return 0, false
	}
	return n + m, true
}

// DecodeReply decodes a reply envelope. The message is self-contained
// (payloads copied), so the caller may recycle data.
func DecodeReply(data []byte) (msg any, errStr string, err error) {
	return DecodeReplyInto(data, nil)
}

// DecodeReplyInto is DecodeReply for a caller that supplies the buffer a
// SegReadResp's Data should land in: a payload that fits is copied into
// dst and Data is dst[:len(Data)]; a longer one, and every other payload,
// is copied out to fresh memory as DecodeReply does.
func DecodeReplyInto(data, dst []byte) (msg any, errStr string, err error) {
	r := wireReader{b: data, into: dst}
	errStr = r.str()
	present := r.flag()
	if r.bad {
		return nil, "", fmt.Errorf("wire: truncated reply envelope")
	}
	if present == 0 {
		if r.off != len(r.b) {
			return nil, "", fmt.Errorf("wire: trailing bytes in reply")
		}
		return nil, errStr, nil
	}
	msg, err = decodeTagged(&r)
	if err != nil {
		return nil, "", err
	}
	if r.off != len(r.b) {
		return nil, "", fmt.Errorf("wire: trailing bytes in reply")
	}
	return msg, errStr, nil
}

func decodeTagged(r *wireReader) (any, error) {
	tag := r.u16()
	if r.bad || tag == tagInvalid || tag >= tagMax || codecTable[tag].dec == nil {
		return nil, fmt.Errorf("wire: unknown message tag %d", tag)
	}
	msg := codecTable[tag].dec(r)
	if r.bad {
		return nil, fmt.Errorf("wire: truncated or corrupt %s", codecTable[tag].name)
	}
	return msg, nil
}

// ---------------------------------------------------------------------------
// Registry

type codecEntry struct {
	name string
	dec  func(*wireReader) any
	zero func() any
}

var codecTable [tagMax]codecEntry

func reg[T any, PT interface {
	*T
	unmarshaler
}](tag uint16, name string) {
	codecTable[tag] = codecEntry{
		name: name,
		dec: func(r *wireReader) any {
			var m T
			PT(&m).decodeWire(r)
			return m
		},
		zero: func() any { var m T; return m },
	}
}

func init() {
	reg[Heartbeat](tagHeartbeat, "Heartbeat")
	reg[Hello](tagHello, "Hello")
	reg[NSLookup](tagNSLookup, "NSLookup")
	reg[NSLookupResp](tagNSLookupResp, "NSLookupResp")
	reg[NSCreate](tagNSCreate, "NSCreate")
	reg[NSCreateResp](tagNSCreateResp, "NSCreateResp")
	reg[NSRemove](tagNSRemove, "NSRemove")
	reg[NSRemoveResp](tagNSRemoveResp, "NSRemoveResp")
	reg[NSMkdir](tagNSMkdir, "NSMkdir")
	reg[NSRmdir](tagNSRmdir, "NSRmdir")
	reg[NSReadDir](tagNSReadDir, "NSReadDir")
	reg[NSReadDirResp](tagNSReadDirResp, "NSReadDirResp")
	reg[NSGenericResp](tagNSGenericResp, "NSGenericResp")
	reg[NSCommitBegin](tagNSCommitBegin, "NSCommitBegin")
	reg[NSCommitBeginResp](tagNSCommitBeginResp, "NSCommitBeginResp")
	reg[NSCommitComplete](tagNSCommitComplete, "NSCommitComplete")
	reg[NSCommitAbort](tagNSCommitAbort, "NSCommitAbort")
	reg[NSLeaseAcquire](tagNSLeaseAcquire, "NSLeaseAcquire")
	reg[NSLeaseAcquireResp](tagNSLeaseAcquireResp, "NSLeaseAcquireResp")
	reg[NSLeaseRelease](tagNSLeaseRelease, "NSLeaseRelease")
	reg[SegRead](tagSegRead, "SegRead")
	reg[SegReadResp](tagSegReadResp, "SegReadResp")
	reg[SegCreate](tagSegCreate, "SegCreate")
	reg[SegCreateResp](tagSegCreateResp, "SegCreateResp")
	reg[SegShadow](tagSegShadow, "SegShadow")
	reg[SegShadowResp](tagSegShadowResp, "SegShadowResp")
	reg[SegWrite](tagSegWrite, "SegWrite")
	reg[SegWriteResp](tagSegWriteResp, "SegWriteResp")
	reg[SegShadowRead](tagSegShadowRead, "SegShadowRead")
	reg[SegRenew](tagSegRenew, "SegRenew")
	reg[SegDelete](tagSegDelete, "SegDelete")
	reg[SegPin](tagSegPin, "SegPin")
	reg[SegFetch](tagSegFetch, "SegFetch")
	reg[SegFetchResp](tagSegFetchResp, "SegFetchResp")
	reg[GenericResp](tagGenericResp, "GenericResp")
	reg[Prepare2PC](tagPrepare2PC, "Prepare2PC")
	reg[Prepare2PCResp](tagPrepare2PCResp, "Prepare2PCResp")
	reg[Commit2PC](tagCommit2PC, "Commit2PC")
	reg[Abort2PC](tagAbort2PC, "Abort2PC")
	reg[LocRefresh](tagLocRefresh, "LocRefresh")
	reg[LocUpdate](tagLocUpdate, "LocUpdate")
	reg[LocQuery](tagLocQuery, "LocQuery")
	reg[LocQueryResp](tagLocQueryResp, "LocQueryResp")
	reg[LocProbe](tagLocProbe, "LocProbe")
	reg[LocProbeResp](tagLocProbeResp, "LocProbeResp")
	reg[SyncNotify](tagSyncNotify, "SyncNotify")
	reg[ReplicateNotify](tagReplicateNotify, "ReplicateNotify")
	reg[PRead](tagPRead, "PRead")
	reg[PReadResp](tagPReadResp, "PReadResp")
	reg[PWrite](tagPWrite, "PWrite")
	reg[PWriteResp](tagPWriteResp, "PWriteResp")
	reg[PCommit](tagPCommit, "PCommit")
	reg[PCommitResp](tagPCommitResp, "PCommitResp")
	reg[PAbort](tagPAbort, "PAbort")
	reg[PStat](tagPStat, "PStat")
	reg[PStatResp](tagPStatResp, "PStatResp")
	reg[PMkdir](tagPMkdir, "PMkdir")
	reg[PRemove](tagPRemove, "PRemove")
	reg[AdminDrain](tagAdminDrain, "AdminDrain")
	reg[AdminStatus](tagAdminStatus, "AdminStatus")
	reg[AdminStatusResp](tagAdminStatusResp, "AdminStatusResp")
	reg[AdminRetire](tagAdminRetire, "AdminRetire")
	reg[ProxyStatus](tagProxyStatus, "ProxyStatus")
	reg[ProxyStatusResp](tagProxyStatusResp, "ProxyStatusResp")
}

// ---------------------------------------------------------------------------
// Encode primitives (append-style, fixed-width little-endian)

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }
func appendInt(b []byte, v int) []byte   { return appendI64(b, int64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendID(b []byte, id ids.SegID) []byte { return append(b, id[:]...) }

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendI64(b, t.UnixNano())
}

const (
	idSize   = 16
	numSize  = 8
	boolSize = 1
)

func strSize(s string) int   { return 4 + len(s) }
func bytesSize(p []byte) int { return 4 + len(p) }
func timeSize(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + numSize
}

// ---------------------------------------------------------------------------
// Decode primitives

// wireReader walks an encoded buffer. Truncation or corruption sets bad and
// makes every subsequent read return zero values — callers check bad once.
type wireReader struct {
	b   []byte
	off int
	bad bool
	// into is the caller's reply buffer (DecodeReplyInto); only
	// SegReadResp.Data decodes into it.
	into []byte
	// view makes byte slices alias b instead of copying (DecodeEnvelopeView).
	view bool
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) take(n int) []byte {
	if n < 0 || n > r.remaining() {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wireReader) u8() byte {
	s := r.take(1)
	if r.bad {
		return 0
	}
	return s[0]
}

func (r *wireReader) u16() uint16 {
	s := r.take(2)
	if r.bad {
		return 0
	}
	return uint16(s[0]) | uint16(s[1])<<8
}

func (r *wireReader) u32() uint32 {
	s := r.take(4)
	if r.bad {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (r *wireReader) u64() uint64 {
	s := r.take(8)
	if r.bad {
		return 0
	}
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func (r *wireReader) i64() int64   { return int64(r.u64()) }
func (r *wireReader) int_() int    { return int(r.i64()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// flag reads a strict 0/1 presence byte; any other value marks the buffer
// corrupt, which keeps the encoding canonical (decode∘encode = identity).
func (r *wireReader) flag() byte {
	b := r.u8()
	if b > 1 {
		r.bad = true
		return 0
	}
	return b
}

func (r *wireReader) bool_() bool { return r.flag() == 1 }

func (r *wireReader) str() string {
	s := r.take(int(r.u32()))
	if r.bad {
		return ""
	}
	return string(s)
}

// bytes decodes a byte slice as a private copy, or as a capacity-clipped
// view of the input for a view reader; a zero length decodes as nil.
func (r *wireReader) bytes() []byte { return r.bytesInto(nil) }

// bytesInto is bytes copying into dst[:n] when the n decoded bytes fit.
func (r *wireReader) bytesInto(dst []byte) []byte {
	n := int(r.u32())
	if n == 0 {
		return nil
	}
	s := r.take(n)
	if r.bad {
		return nil
	}
	if r.view {
		return s[:n:n]
	}
	if n <= len(dst) {
		return dst[:copy(dst, s):n]
	}
	return append([]byte(nil), s...)
}

func (r *wireReader) id() ids.SegID {
	var id ids.SegID
	copy(id[:], r.take(idSize))
	return id
}

func (r *wireReader) time_() time.Time {
	if r.flag() == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.i64())
}

// count reads a u32 element count, bounding it by the remaining bytes so a
// corrupt count cannot trigger a huge allocation (each element encodes to
// at least one byte).
func (r *wireReader) count() int {
	n := int(r.u32())
	if n == 0 || r.bad {
		return 0
	}
	if n < 0 || n > r.remaining() {
		r.bad = true
		return 0
	}
	return n
}

// ---------------------------------------------------------------------------
// Shared sub-struct codecs

func attrsSize() int {
	// ReplDeg, Alpha, Mode, StripeCount, StripeUnit, DeclaredSize, Policy,
	// VersioningOff, LocalityThreshold
	return numSize + numSize + 1 + numSize + numSize + numSize + 1 + boolSize + numSize
}

func appendAttrs(b []byte, a FileAttrs) []byte {
	b = appendInt(b, a.ReplDeg)
	b = appendF64(b, a.Alpha)
	b = append(b, byte(a.Mode))
	b = appendInt(b, a.StripeCount)
	b = appendI64(b, a.StripeUnit)
	b = appendI64(b, a.DeclaredSize)
	b = append(b, byte(a.Policy))
	b = appendBool(b, a.VersioningOff)
	return appendF64(b, a.LocalityThreshold)
}

func (r *wireReader) attrs() FileAttrs {
	var a FileAttrs
	a.ReplDeg = r.int_()
	a.Alpha = r.f64()
	a.Mode = LayoutMode(r.u8())
	a.StripeCount = r.int_()
	a.StripeUnit = r.i64()
	a.DeclaredSize = r.i64()
	a.Policy = PlacementPolicy(r.u8())
	a.VersioningOff = r.bool_()
	a.LocalityThreshold = r.f64()
	return a
}

func loadInfoSize(l *LoadInfo) int {
	return strSize(l.Rack) + numSize*4 + boolSize
}

func appendLoadInfo(b []byte, l *LoadInfo) []byte {
	b = appendStr(b, l.Rack)
	b = appendF64(b, l.Load)
	b = appendF64(b, l.IOWaitEWMA)
	b = appendI64(b, l.FreeBytes)
	b = appendI64(b, l.TotalBytes)
	return appendBool(b, l.Draining)
}

func (r *wireReader) loadInfo() LoadInfo {
	var l LoadInfo
	l.Rack = r.str()
	l.Load = r.f64()
	l.IOWaitEWMA = r.f64()
	l.FreeBytes = r.i64()
	l.TotalBytes = r.i64()
	l.Draining = r.bool_()
	return l
}

func fileEntrySize(e *FileEntry) int {
	return strSize(e.Path) + idSize + numSize + numSize + attrsSize() +
		timeSize(e.Created) + timeSize(e.Modified)
}

func appendFileEntry(b []byte, e *FileEntry) []byte {
	b = appendStr(b, e.Path)
	b = appendID(b, e.FileID)
	b = appendU64(b, e.Version)
	b = appendI64(b, e.Size)
	b = appendAttrs(b, e.Attrs)
	b = appendTime(b, e.Created)
	return appendTime(b, e.Modified)
}

func (r *wireReader) fileEntry() FileEntry {
	var e FileEntry
	e.Path = r.str()
	e.FileID = r.id()
	e.Version = r.u64()
	e.Size = r.i64()
	e.Attrs = r.attrs()
	e.Created = r.time_()
	e.Modified = r.time_()
	return e
}

func ownersSize(os []OwnerInfo) int {
	n := 4
	for i := range os {
		n += strSize(string(os[i].Node)) + numSize
	}
	return n
}

func appendOwners(b []byte, os []OwnerInfo) []byte {
	b = appendU32(b, uint32(len(os)))
	for i := range os {
		b = appendStr(b, string(os[i].Node))
		b = appendU64(b, os[i].Version)
	}
	return b
}

func (r *wireReader) owners() []OwnerInfo {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]OwnerInfo, n)
	for i := range out {
		out[i].Node = NodeID(r.str())
		out[i].Version = r.u64()
	}
	return out
}

const locEntrySize = idSize + numSize*4

func appendLocEntry(b []byte, e *LocEntry) []byte {
	b = appendID(b, e.Seg)
	b = appendU64(b, e.Version)
	b = appendI64(b, e.Size)
	b = appendInt(b, e.ReplDeg)
	return appendF64(b, e.LocalityThreshold)
}

func (r *wireReader) locEntry() LocEntry {
	var e LocEntry
	e.Seg = r.id()
	e.Version = r.u64()
	e.Size = r.i64()
	e.ReplDeg = r.int_()
	e.LocalityThreshold = r.f64()
	return e
}

func segIDsSize(s []ids.SegID) int { return 4 + len(s)*idSize }

func appendSegIDs(b []byte, s []ids.SegID) []byte {
	b = appendU32(b, uint32(len(s)))
	for i := range s {
		b = appendID(b, s[i])
	}
	return b
}

func (r *wireReader) segIDs() []ids.SegID {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]ids.SegID, n)
	for i := range out {
		out[i] = r.id()
	}
	return out
}

func u64sSize(s []uint64) int { return 4 + len(s)*numSize }

func appendU64s(b []byte, s []uint64) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, v := range s {
		b = appendU64(b, v)
	}
	return b
}

func u32sSize(s []uint32) int { return 4 + len(s)*4 }

func appendU32s(b []byte, s []uint32) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, v := range s {
		b = appendU32(b, v)
	}
	return b
}

func (r *wireReader) u32s() []uint32 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

func (r *wireReader) u64s() []uint64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func i64sSize(s []int64) int { return 4 + len(s)*numSize }

func appendI64s(b []byte, s []int64) []byte {
	b = appendU32(b, uint32(len(s)))
	for _, v := range s {
		b = appendI64(b, v)
	}
	return b
}

func (r *wireReader) i64s() []int64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-message codecs (tag order)

func (Heartbeat) wireTag() uint16 { return tagHeartbeat }
func (m Heartbeat) encodedSize() int {
	return strSize(string(m.From)) + numSize + loadInfoSize(&m.Load)
}
func (m Heartbeat) appendWire(b []byte) []byte {
	b = appendStr(b, string(m.From))
	b = appendU64(b, m.Seq)
	return appendLoadInfo(b, &m.Load)
}
func (m *Heartbeat) decodeWire(r *wireReader) {
	m.From = NodeID(r.str())
	m.Seq = r.u64()
	m.Load = r.loadInfo()
}

func (Hello) wireTag() uint16              { return tagHello }
func (m Hello) encodedSize() int           { return strSize(string(m.From)) }
func (m Hello) appendWire(b []byte) []byte { return appendStr(b, string(m.From)) }
func (m *Hello) decodeWire(r *wireReader)  { m.From = NodeID(r.str()) }

func (NSLookup) wireTag() uint16              { return tagNSLookup }
func (m NSLookup) encodedSize() int           { return strSize(m.Path) }
func (m NSLookup) appendWire(b []byte) []byte { return appendStr(b, m.Path) }
func (m *NSLookup) decodeWire(r *wireReader)  { m.Path = r.str() }

func (NSLookupResp) wireTag() uint16 { return tagNSLookupResp }
func (m NSLookupResp) encodedSize() int {
	return boolSize + fileEntrySize(&m.Entry)
}
func (m NSLookupResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendFileEntry(b, &m.Entry)
}
func (m *NSLookupResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Entry = r.fileEntry()
}

func (NSCreate) wireTag() uint16 { return tagNSCreate }
func (m NSCreate) encodedSize() int {
	return strSize(m.Path) + idSize + attrsSize()
}
func (m NSCreate) appendWire(b []byte) []byte {
	b = appendStr(b, m.Path)
	b = appendID(b, m.FileID)
	return appendAttrs(b, m.Attrs)
}
func (m *NSCreate) decodeWire(r *wireReader) {
	m.Path = r.str()
	m.FileID = r.id()
	m.Attrs = r.attrs()
}

func (NSCreateResp) wireTag() uint16 { return tagNSCreateResp }
func (m NSCreateResp) encodedSize() int {
	return boolSize + strSize(m.Err) + fileEntrySize(&m.Entry)
}
func (m NSCreateResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	return appendFileEntry(b, &m.Entry)
}
func (m *NSCreateResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Entry = r.fileEntry()
}

func (NSRemove) wireTag() uint16              { return tagNSRemove }
func (m NSRemove) encodedSize() int           { return strSize(m.Path) }
func (m NSRemove) appendWire(b []byte) []byte { return appendStr(b, m.Path) }
func (m *NSRemove) decodeWire(r *wireReader)  { m.Path = r.str() }

func (NSRemoveResp) wireTag() uint16 { return tagNSRemoveResp }
func (m NSRemoveResp) encodedSize() int {
	return boolSize + strSize(m.Err) + fileEntrySize(&m.Entry) + boolSize
}
func (m NSRemoveResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendFileEntry(b, &m.Entry)
	return appendBool(b, m.NotFound)
}
func (m *NSRemoveResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Entry = r.fileEntry()
	m.NotFound = r.bool_()
}

func (NSMkdir) wireTag() uint16              { return tagNSMkdir }
func (m NSMkdir) encodedSize() int           { return strSize(m.Path) }
func (m NSMkdir) appendWire(b []byte) []byte { return appendStr(b, m.Path) }
func (m *NSMkdir) decodeWire(r *wireReader)  { m.Path = r.str() }

func (NSRmdir) wireTag() uint16              { return tagNSRmdir }
func (m NSRmdir) encodedSize() int           { return strSize(m.Path) }
func (m NSRmdir) appendWire(b []byte) []byte { return appendStr(b, m.Path) }
func (m *NSRmdir) decodeWire(r *wireReader)  { m.Path = r.str() }

func (NSReadDir) wireTag() uint16              { return tagNSReadDir }
func (m NSReadDir) encodedSize() int           { return strSize(m.Path) }
func (m NSReadDir) appendWire(b []byte) []byte { return appendStr(b, m.Path) }
func (m *NSReadDir) decodeWire(r *wireReader)  { m.Path = r.str() }

func (NSReadDirResp) wireTag() uint16 { return tagNSReadDirResp }
func (m NSReadDirResp) encodedSize() int {
	n := boolSize + strSize(m.Err) + 4
	for i := range m.Entries {
		e := &m.Entries[i]
		n += strSize(e.Name) + boolSize + 1
		if e.Entry != nil {
			n += fileEntrySize(e.Entry)
		}
	}
	return n
}
func (m NSReadDirResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU32(b, uint32(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		b = appendStr(b, e.Name)
		b = appendBool(b, e.IsDir)
		if e.Entry == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendFileEntry(b, e.Entry)
		}
	}
	return b
}
func (m *NSReadDirResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	n := r.count()
	if n == 0 {
		return
	}
	m.Entries = make([]DirEntry, n)
	for i := range m.Entries {
		e := &m.Entries[i]
		e.Name = r.str()
		e.IsDir = r.bool_()
		if r.flag() == 1 {
			fe := r.fileEntry()
			e.Entry = &fe
		}
	}
}

func (NSGenericResp) wireTag() uint16 { return tagNSGenericResp }
func (m NSGenericResp) encodedSize() int {
	return boolSize + strSize(m.Err)
}
func (m NSGenericResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendStr(b, m.Err)
}
func (m *NSGenericResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
}

func (NSCommitBegin) wireTag() uint16 { return tagNSCommitBegin }
func (m NSCommitBegin) encodedSize() int {
	return idSize + strSize(m.Path) + numSize
}
func (m NSCommitBegin) appendWire(b []byte) []byte {
	b = appendID(b, m.FileID)
	b = appendStr(b, m.Path)
	return appendU64(b, m.BaseVer)
}
func (m *NSCommitBegin) decodeWire(r *wireReader) {
	m.FileID = r.id()
	m.Path = r.str()
	m.BaseVer = r.u64()
}

func (NSCommitBeginResp) wireTag() uint16 { return tagNSCommitBeginResp }
func (m NSCommitBeginResp) encodedSize() int {
	return boolSize*3 + numSize*2
}
func (m NSCommitBeginResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendBool(b, m.Conflict)
	b = appendBool(b, m.Blocked)
	b = appendU64(b, m.LatestVer)
	return appendU64(b, m.Ticket)
}
func (m *NSCommitBeginResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Conflict = r.bool_()
	m.Blocked = r.bool_()
	m.LatestVer = r.u64()
	m.Ticket = r.u64()
}

func (NSCommitComplete) wireTag() uint16 { return tagNSCommitComplete }
func (m NSCommitComplete) encodedSize() int {
	return idSize + strSize(m.Path) + numSize*3
}
func (m NSCommitComplete) appendWire(b []byte) []byte {
	b = appendID(b, m.FileID)
	b = appendStr(b, m.Path)
	b = appendU64(b, m.NewVer)
	b = appendU64(b, m.Ticket)
	return appendI64(b, m.NewSize)
}
func (m *NSCommitComplete) decodeWire(r *wireReader) {
	m.FileID = r.id()
	m.Path = r.str()
	m.NewVer = r.u64()
	m.Ticket = r.u64()
	m.NewSize = r.i64()
}

func (NSCommitAbort) wireTag() uint16 { return tagNSCommitAbort }
func (m NSCommitAbort) encodedSize() int {
	return idSize + strSize(m.Path) + numSize
}
func (m NSCommitAbort) appendWire(b []byte) []byte {
	b = appendID(b, m.FileID)
	b = appendStr(b, m.Path)
	return appendU64(b, m.Ticket)
}
func (m *NSCommitAbort) decodeWire(r *wireReader) {
	m.FileID = r.id()
	m.Path = r.str()
	m.Ticket = r.u64()
}

func (NSLeaseAcquire) wireTag() uint16 { return tagNSLeaseAcquire }
func (m NSLeaseAcquire) encodedSize() int {
	return strSize(m.Path) + strSize(m.Owner) + numSize
}
func (m NSLeaseAcquire) appendWire(b []byte) []byte {
	b = appendStr(b, m.Path)
	b = appendStr(b, m.Owner)
	return appendF64(b, m.TTLSec)
}
func (m *NSLeaseAcquire) decodeWire(r *wireReader) {
	m.Path = r.str()
	m.Owner = r.str()
	m.TTLSec = r.f64()
}

func (NSLeaseAcquireResp) wireTag() uint16 { return tagNSLeaseAcquireResp }
func (m NSLeaseAcquireResp) encodedSize() int {
	return boolSize + strSize(m.Holder)
}
func (m NSLeaseAcquireResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendStr(b, m.Holder)
}
func (m *NSLeaseAcquireResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Holder = r.str()
}

func (NSLeaseRelease) wireTag() uint16 { return tagNSLeaseRelease }
func (m NSLeaseRelease) encodedSize() int {
	return strSize(m.Path) + strSize(m.Owner)
}
func (m NSLeaseRelease) appendWire(b []byte) []byte {
	b = appendStr(b, m.Path)
	return appendStr(b, m.Owner)
}
func (m *NSLeaseRelease) decodeWire(r *wireReader) {
	m.Path = r.str()
	m.Owner = r.str()
}

func (SegRead) wireTag() uint16 { return tagSegRead }
func (m SegRead) encodedSize() int {
	return idSize + numSize*3
}
func (m SegRead) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	b = appendI64(b, m.Offset)
	return appendI64(b, m.Length)
}
func (m *SegRead) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.Offset = r.i64()
	m.Length = r.i64()
}

func (SegReadResp) wireTag() uint16 { return tagSegReadResp }
func (m SegReadResp) encodedSize() int {
	return boolSize + strSize(m.Err) + boolSize + ownersSize(m.Owners) +
		numSize + bytesSize(m.Data) + boolSize + 4
}
func (m SegReadResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendBool(b, m.Redirect)
	b = appendOwners(b, m.Owners)
	b = appendU64(b, m.Version)
	b = appendBytes(b, m.Data)
	b = appendBool(b, m.EOF)
	return appendU32(b, m.Sum)
}
func (m *SegReadResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Redirect = r.bool_()
	m.Owners = r.owners()
	m.Version = r.u64()
	m.Data = r.bytesInto(r.into)
	m.EOF = r.bool_()
	m.Sum = r.u32()
}

func (SegCreate) wireTag() uint16 { return tagSegCreate }
func (m SegCreate) encodedSize() int {
	return idSize + numSize + bytesSize(m.Data) + numSize + numSize + boolSize
}
func (m SegCreate) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	b = appendBytes(b, m.Data)
	b = appendInt(b, m.ReplDeg)
	b = appendF64(b, m.LocalityThreshold)
	return appendBool(b, m.Direct)
}
func (m *SegCreate) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.Data = r.bytes()
	m.ReplDeg = r.int_()
	m.LocalityThreshold = r.f64()
	m.Direct = r.bool_()
}

func (SegCreateResp) wireTag() uint16 { return tagSegCreateResp }
func (m SegCreateResp) encodedSize() int {
	return boolSize + strSize(m.Err)
}
func (m SegCreateResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendStr(b, m.Err)
}
func (m *SegCreateResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
}

func (SegShadow) wireTag() uint16 { return tagSegShadow }
func (m SegShadow) encodedSize() int {
	return strSize(m.Owner) + idSize + numSize*5 + boolSize + bytesSize(m.Data)
}
func (m SegShadow) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	b = appendID(b, m.Seg)
	b = appendU64(b, m.BaseVer)
	b = appendF64(b, m.TTLSec)
	b = appendInt(b, m.ReplDeg)
	b = appendF64(b, m.LocalityThreshold)
	b = appendI64(b, m.SizeHint)
	b = appendBool(b, m.Prepare)
	return appendBytes(b, m.Data)
}
func (m *SegShadow) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Seg = r.id()
	m.BaseVer = r.u64()
	m.TTLSec = r.f64()
	m.ReplDeg = r.int_()
	m.LocalityThreshold = r.f64()
	m.SizeHint = r.i64()
	m.Prepare = r.bool_()
	m.Data = r.bytes()
}

func (SegShadowResp) wireTag() uint16 { return tagSegShadowResp }
func (m SegShadowResp) encodedSize() int {
	return boolSize + strSize(m.Err) + numSize*2 + boolSize
}
func (m SegShadowResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU64(b, m.NewVer)
	b = appendI64(b, m.Size)
	return appendBool(b, m.Created)
}
func (m *SegShadowResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.NewVer = r.u64()
	m.Size = r.i64()
	m.Created = r.bool_()
}

func (SegWrite) wireTag() uint16 { return tagSegWrite }
func (m SegWrite) encodedSize() int {
	return strSize(m.Owner) + idSize + numSize + bytesSize(m.Data) + boolSize
}
func (m SegWrite) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	b = appendID(b, m.Seg)
	b = appendI64(b, m.Offset)
	b = appendBytes(b, m.Data)
	return appendBool(b, m.Direct)
}
func (m *SegWrite) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Seg = r.id()
	m.Offset = r.i64()
	m.Data = r.bytes()
	m.Direct = r.bool_()
}

func (SegWriteResp) wireTag() uint16 { return tagSegWriteResp }
func (m SegWriteResp) encodedSize() int {
	return boolSize + strSize(m.Err) + numSize
}
func (m SegWriteResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	return appendInt(b, m.N)
}
func (m *SegWriteResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.N = r.int_()
}

func (SegShadowRead) wireTag() uint16 { return tagSegShadowRead }
func (m SegShadowRead) encodedSize() int {
	return strSize(m.Owner) + idSize + numSize*2
}
func (m SegShadowRead) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	b = appendID(b, m.Seg)
	b = appendI64(b, m.Offset)
	return appendI64(b, m.Length)
}
func (m *SegShadowRead) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Seg = r.id()
	m.Offset = r.i64()
	m.Length = r.i64()
}

func (SegRenew) wireTag() uint16 { return tagSegRenew }
func (m SegRenew) encodedSize() int {
	return strSize(m.Owner) + idSize + numSize
}
func (m SegRenew) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	b = appendID(b, m.Seg)
	return appendF64(b, m.TTLSec)
}
func (m *SegRenew) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Seg = r.id()
	m.TTLSec = r.f64()
}

func (SegDelete) wireTag() uint16              { return tagSegDelete }
func (m SegDelete) encodedSize() int           { return idSize }
func (m SegDelete) appendWire(b []byte) []byte { return appendID(b, m.Seg) }
func (m *SegDelete) decodeWire(r *wireReader)  { m.Seg = r.id() }

func (SegPin) wireTag() uint16 { return tagSegPin }
func (m SegPin) encodedSize() int {
	return idSize + numSize + boolSize
}
func (m SegPin) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	return appendBool(b, m.Unpin)
}
func (m *SegPin) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.Unpin = r.bool_()
}

func (SegFetch) wireTag() uint16 { return tagSegFetch }
func (m SegFetch) encodedSize() int {
	return idSize + numSize*2
}
func (m SegFetch) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	return appendU64(b, m.HaveVer)
}
func (m *SegFetch) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.HaveVer = r.u64()
}

func (SegFetchResp) wireTag() uint16 { return tagSegFetchResp }
func (m SegFetchResp) encodedSize() int {
	n := boolSize + strSize(m.Err) + numSize*2 + boolSize + 4
	for i := range m.Ranges {
		n += numSize + bytesSize(m.Ranges[i].Data)
	}
	return n + bytesSize(m.Data) + numSize + numSize + u32sSize(m.Sums) + ownersSize(m.Owners)
}
func (m SegFetchResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU64(b, m.Version)
	b = appendI64(b, m.Size)
	b = appendBool(b, m.Delta)
	b = appendU32(b, uint32(len(m.Ranges)))
	for i := range m.Ranges {
		b = appendI64(b, m.Ranges[i].Off)
		b = appendBytes(b, m.Ranges[i].Data)
	}
	b = appendBytes(b, m.Data)
	b = appendInt(b, m.ReplDeg)
	b = appendF64(b, m.LocalityThreshold)
	b = appendU32s(b, m.Sums)
	return appendOwners(b, m.Owners)
}
func (m *SegFetchResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Version = r.u64()
	m.Size = r.i64()
	m.Delta = r.bool_()
	if n := r.count(); n > 0 {
		m.Ranges = make([]DeltaRange, n)
		for i := range m.Ranges {
			m.Ranges[i].Off = r.i64()
			m.Ranges[i].Data = r.bytes()
		}
	}
	m.Data = r.bytes()
	m.ReplDeg = r.int_()
	m.LocalityThreshold = r.f64()
	m.Sums = r.u32s()
	m.Owners = r.owners()
}

func (GenericResp) wireTag() uint16 { return tagGenericResp }
func (m GenericResp) encodedSize() int {
	return boolSize + strSize(m.Err)
}
func (m GenericResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendStr(b, m.Err)
}
func (m *GenericResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
}

func (Prepare2PC) wireTag() uint16 { return tagPrepare2PC }
func (m Prepare2PC) encodedSize() int {
	return strSize(m.Owner) + segIDsSize(m.Segs)
}
func (m Prepare2PC) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	return appendSegIDs(b, m.Segs)
}
func (m *Prepare2PC) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Segs = r.segIDs()
}

func (Prepare2PCResp) wireTag() uint16 { return tagPrepare2PCResp }
func (m Prepare2PCResp) encodedSize() int {
	return boolSize + strSize(m.Err) + u64sSize(m.PlannedVers) + i64sSize(m.Sizes)
}
func (m Prepare2PCResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU64s(b, m.PlannedVers)
	return appendI64s(b, m.Sizes)
}
func (m *Prepare2PCResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.PlannedVers = r.u64s()
	m.Sizes = r.i64s()
}

func (Commit2PC) wireTag() uint16 { return tagCommit2PC }
func (m Commit2PC) encodedSize() int {
	return strSize(m.Owner) + segIDsSize(m.Segs) + u64sSize(m.Planned)
}
func (m Commit2PC) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	b = appendSegIDs(b, m.Segs)
	return appendU64s(b, m.Planned)
}
func (m *Commit2PC) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Segs = r.segIDs()
	m.Planned = r.u64s()
}

func (Abort2PC) wireTag() uint16 { return tagAbort2PC }
func (m Abort2PC) encodedSize() int {
	return strSize(m.Owner) + segIDsSize(m.Segs)
}
func (m Abort2PC) appendWire(b []byte) []byte {
	b = appendStr(b, m.Owner)
	return appendSegIDs(b, m.Segs)
}
func (m *Abort2PC) decodeWire(r *wireReader) {
	m.Owner = r.str()
	m.Segs = r.segIDs()
}

func (LocRefresh) wireTag() uint16 { return tagLocRefresh }
func (m LocRefresh) encodedSize() int {
	return strSize(string(m.From)) + 4 + len(m.Entries)*locEntrySize
}
func (m LocRefresh) appendWire(b []byte) []byte {
	b = appendStr(b, string(m.From))
	b = appendU32(b, uint32(len(m.Entries)))
	for i := range m.Entries {
		b = appendLocEntry(b, &m.Entries[i])
	}
	return b
}
func (m *LocRefresh) decodeWire(r *wireReader) {
	m.From = NodeID(r.str())
	n := r.count()
	if n == 0 {
		return
	}
	m.Entries = make([]LocEntry, n)
	for i := range m.Entries {
		m.Entries[i] = r.locEntry()
	}
}

func (LocUpdate) wireTag() uint16 { return tagLocUpdate }
func (m LocUpdate) encodedSize() int {
	return strSize(string(m.From)) + locEntrySize + boolSize
}
func (m LocUpdate) appendWire(b []byte) []byte {
	b = appendStr(b, string(m.From))
	b = appendLocEntry(b, &m.Entry)
	return appendBool(b, m.Removed)
}
func (m *LocUpdate) decodeWire(r *wireReader) {
	m.From = NodeID(r.str())
	m.Entry = r.locEntry()
	m.Removed = r.bool_()
}

func (LocQuery) wireTag() uint16              { return tagLocQuery }
func (m LocQuery) encodedSize() int           { return idSize }
func (m LocQuery) appendWire(b []byte) []byte { return appendID(b, m.Seg) }
func (m *LocQuery) decodeWire(r *wireReader)  { m.Seg = r.id() }

func (LocQueryResp) wireTag() uint16 { return tagLocQueryResp }
func (m LocQueryResp) encodedSize() int {
	return boolSize + ownersSize(m.Owners)
}
func (m LocQueryResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendOwners(b, m.Owners)
}
func (m *LocQueryResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Owners = r.owners()
}

func (LocProbe) wireTag() uint16 { return tagLocProbe }
func (m LocProbe) encodedSize() int {
	return idSize + strSize(string(m.Asker)) + numSize
}
func (m LocProbe) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendStr(b, string(m.Asker))
	return appendU64(b, m.Nonce)
}
func (m *LocProbe) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Asker = NodeID(r.str())
	m.Nonce = r.u64()
}

func (LocProbeResp) wireTag() uint16 { return tagLocProbeResp }
func (m LocProbeResp) encodedSize() int {
	return idSize + numSize + strSize(string(m.Owner)) + numSize
}
func (m LocProbeResp) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Nonce)
	b = appendStr(b, string(m.Owner))
	return appendU64(b, m.Version)
}
func (m *LocProbeResp) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Nonce = r.u64()
	m.Owner = NodeID(r.str())
	m.Version = r.u64()
}

func (SyncNotify) wireTag() uint16 { return tagSyncNotify }
func (m SyncNotify) encodedSize() int {
	return idSize + numSize + strSize(string(m.Source))
}
func (m SyncNotify) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	return appendStr(b, string(m.Source))
}
func (m *SyncNotify) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.Source = NodeID(r.str())
}

func (ReplicateNotify) wireTag() uint16 { return tagReplicateNotify }
func (m ReplicateNotify) encodedSize() int {
	return idSize + numSize + strSize(string(m.Source)) + numSize + numSize + boolSize
}
func (m ReplicateNotify) appendWire(b []byte) []byte {
	b = appendID(b, m.Seg)
	b = appendU64(b, m.Version)
	b = appendStr(b, string(m.Source))
	b = appendInt(b, m.ReplDeg)
	b = appendF64(b, m.LocalityThreshold)
	return appendBool(b, m.Handoff)
}
func (m *ReplicateNotify) decodeWire(r *wireReader) {
	m.Seg = r.id()
	m.Version = r.u64()
	m.Source = NodeID(r.str())
	m.ReplDeg = r.int_()
	m.LocalityThreshold = r.f64()
	m.Handoff = r.bool_()
}

func (PRead) wireTag() uint16 { return tagPRead }
func (m PRead) encodedSize() int {
	return strSize(m.Path) + numSize*3
}
func (m PRead) appendWire(b []byte) []byte {
	b = appendStr(b, m.Path)
	b = appendI64(b, m.Offset)
	b = appendI64(b, m.Length)
	return appendU64(b, m.Version)
}
func (m *PRead) decodeWire(r *wireReader) {
	m.Path = r.str()
	m.Offset = r.i64()
	m.Length = r.i64()
	m.Version = r.u64()
}

func (PReadResp) wireTag() uint16 { return tagPReadResp }
func (m PReadResp) encodedSize() int {
	return boolSize + strSize(m.Err) + numSize + bytesSize(m.Data) + boolSize
}
func (m PReadResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU64(b, m.Version)
	b = appendBytes(b, m.Data)
	return appendBool(b, m.EOF)
}
func (m *PReadResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Version = r.u64()
	m.Data = r.bytes()
	m.EOF = r.bool_()
}

func (PWrite) wireTag() uint16 { return tagPWrite }
func (m PWrite) encodedSize() int {
	return strSize(m.Sess) + strSize(m.Path) + numSize + bytesSize(m.Data) +
		boolSize + numSize
}
func (m PWrite) appendWire(b []byte) []byte {
	b = appendStr(b, m.Sess)
	b = appendStr(b, m.Path)
	b = appendI64(b, m.Offset)
	b = appendBytes(b, m.Data)
	b = appendBool(b, m.Create)
	return appendInt(b, m.ReplDeg)
}
func (m *PWrite) decodeWire(r *wireReader) {
	m.Sess = r.str()
	m.Path = r.str()
	m.Offset = r.i64()
	m.Data = r.bytes()
	m.Create = r.bool_()
	m.ReplDeg = r.int_()
}

func (PWriteResp) wireTag() uint16 { return tagPWriteResp }
func (m PWriteResp) encodedSize() int {
	return boolSize + strSize(m.Err) + numSize
}
func (m PWriteResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	return appendInt(b, m.N)
}
func (m *PWriteResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.N = r.int_()
}

func (PCommit) wireTag() uint16 { return tagPCommit }
func (m PCommit) encodedSize() int {
	return strSize(m.Sess) + strSize(m.Path)
}
func (m PCommit) appendWire(b []byte) []byte {
	b = appendStr(b, m.Sess)
	return appendStr(b, m.Path)
}
func (m *PCommit) decodeWire(r *wireReader) {
	m.Sess = r.str()
	m.Path = r.str()
}

func (PCommitResp) wireTag() uint16 { return tagPCommitResp }
func (m PCommitResp) encodedSize() int {
	return boolSize + strSize(m.Err) + numSize*2
}
func (m PCommitResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendU64(b, m.Version)
	return appendI64(b, m.Size)
}
func (m *PCommitResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Version = r.u64()
	m.Size = r.i64()
}

func (PAbort) wireTag() uint16 { return tagPAbort }
func (m PAbort) encodedSize() int {
	return strSize(m.Sess) + strSize(m.Path)
}
func (m PAbort) appendWire(b []byte) []byte {
	b = appendStr(b, m.Sess)
	return appendStr(b, m.Path)
}
func (m *PAbort) decodeWire(r *wireReader) {
	m.Sess = r.str()
	m.Path = r.str()
}

func (PStat) wireTag() uint16 { return tagPStat }
func (m PStat) encodedSize() int {
	return strSize(m.Path)
}
func (m PStat) appendWire(b []byte) []byte {
	return appendStr(b, m.Path)
}
func (m *PStat) decodeWire(r *wireReader) {
	m.Path = r.str()
}

func (PStatResp) wireTag() uint16 { return tagPStatResp }
func (m PStatResp) encodedSize() int {
	return boolSize + strSize(m.Err) + fileEntrySize(&m.Entry)
}
func (m PStatResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	return appendFileEntry(b, &m.Entry)
}
func (m *PStatResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Entry = r.fileEntry()
}

func (PMkdir) wireTag() uint16 { return tagPMkdir }
func (m PMkdir) encodedSize() int {
	return strSize(m.Path)
}
func (m PMkdir) appendWire(b []byte) []byte {
	return appendStr(b, m.Path)
}
func (m *PMkdir) decodeWire(r *wireReader) {
	m.Path = r.str()
}

func (PRemove) wireTag() uint16 { return tagPRemove }
func (m PRemove) encodedSize() int {
	return strSize(m.Path)
}
func (m PRemove) appendWire(b []byte) []byte {
	return appendStr(b, m.Path)
}
func (m *PRemove) decodeWire(r *wireReader) {
	m.Path = r.str()
}

func (AdminDrain) wireTag() uint16 { return tagAdminDrain }
func (m AdminDrain) encodedSize() int {
	return strSize(string(m.Node)) + boolSize
}
func (m AdminDrain) appendWire(b []byte) []byte {
	b = appendStr(b, string(m.Node))
	return appendBool(b, m.Abort)
}
func (m *AdminDrain) decodeWire(r *wireReader) {
	m.Node = NodeID(r.str())
	m.Abort = r.bool_()
}

func (AdminStatus) wireTag() uint16 { return tagAdminStatus }
func (m AdminStatus) encodedSize() int {
	return strSize(string(m.Node))
}
func (m AdminStatus) appendWire(b []byte) []byte {
	return appendStr(b, string(m.Node))
}
func (m *AdminStatus) decodeWire(r *wireReader) {
	m.Node = NodeID(r.str())
}

func (AdminStatusResp) wireTag() uint16 { return tagAdminStatusResp }
func (m AdminStatusResp) encodedSize() int {
	return boolSize + strSize(m.Err) + strSize(string(m.Node)) + boolSize +
		numSize*4
}
func (m AdminStatusResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendStr(b, string(m.Node))
	b = appendBool(b, m.Draining)
	b = appendInt(b, m.Segments)
	b = appendInt(b, m.Shadows)
	b = appendI64(b, m.FreeBytes)
	return appendI64(b, m.TotalBytes)
}
func (m *AdminStatusResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Node = NodeID(r.str())
	m.Draining = r.bool_()
	m.Segments = r.int_()
	m.Shadows = r.int_()
	m.FreeBytes = r.i64()
	m.TotalBytes = r.i64()
}

func (AdminRetire) wireTag() uint16 { return tagAdminRetire }
func (m AdminRetire) encodedSize() int {
	return strSize(string(m.Node))
}
func (m AdminRetire) appendWire(b []byte) []byte {
	return appendStr(b, string(m.Node))
}
func (m *AdminRetire) decodeWire(r *wireReader) {
	m.Node = NodeID(r.str())
}

func (ProxyStatus) wireTag() uint16 { return tagProxyStatus }
func (m ProxyStatus) encodedSize() int {
	return strSize(string(m.Node))
}
func (m ProxyStatus) appendWire(b []byte) []byte {
	return appendStr(b, string(m.Node))
}
func (m *ProxyStatus) decodeWire(r *wireReader) {
	m.Node = NodeID(r.str())
}

func (ProxyStatusResp) wireTag() uint16 { return tagProxyStatusResp }
func (m ProxyStatusResp) encodedSize() int {
	return boolSize + strSize(m.Err) + strSize(string(m.Node)) + numSize*5
}
func (m ProxyStatusResp) appendWire(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = appendStr(b, m.Err)
	b = appendStr(b, string(m.Node))
	b = appendInt(b, m.Sessions)
	b = appendInt(b, m.Reads)
	b = appendU64(b, m.Requests)
	b = appendU64(b, m.Errors)
	return appendInt(b, m.Providers)
}
func (m *ProxyStatusResp) decodeWire(r *wireReader) {
	m.OK = r.bool_()
	m.Err = r.str()
	m.Node = NodeID(r.str())
	m.Sessions = r.int_()
	m.Reads = r.int_()
	m.Requests = r.u64()
	m.Errors = r.u64()
	m.Providers = r.int_()
}
