// Integrity checksums for segment payloads. CRC32C (Castagnoli) is
// hardware-accelerated by hash/crc32 on amd64/arm64, making per-block sums
// cheap enough to verify on every read. Sums live in the wire package so
// every consumer of segment bytes — segstore, provider, core client, proxy —
// shares one definition without import cycles.
//
// Checksums are computed once, at commit time, over the bytes the writer
// intended, and stored as metadata separate from the data. They are NEVER
// recomputed from stored bytes when serving: a sum regenerated from rotten
// data would validate the rot. Verification therefore catches any divergence
// between what was committed and what the media (or the network) returns.
//
// The whole-range sum a provider sends with a read (SegReadResp.Sum) comes
// out of the same CRC pass that checks the range's blocks against their
// commit-time sums (VerifyRange): it is combined from the sums of the bytes
// that just passed, so no byte is summed twice and the client checks what
// was verified, not a later reading of the same memory.
package wire

import "hash/crc32"

// SumBlock is the checksum granularity. 64 KiB keeps sum metadata at 1/16384
// of data size while letting partial reads verify only covering blocks.
const SumBlock = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SumOf returns the CRC32C of an arbitrary byte slice: the client's check of
// a read reply, and the served sum of a direct segment, which has no
// commit-time sums to verify against.
func SumOf(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// SumsOf returns per-SumBlock CRC32C sums covering data. A zero-length
// buffer has no blocks and returns nil.
func SumsOf(data []byte) []uint32 {
	if len(data) == 0 {
		return nil
	}
	sums := make([]uint32, (len(data)+SumBlock-1)/SumBlock)
	for i := range sums {
		end := (i + 1) * SumBlock
		if end > len(data) {
			end = len(data)
		}
		sums[i] = crc32.Checksum(data[i*SumBlock:end], castagnoli)
	}
	return sums
}

// VerifySums checks data against per-block sums and returns the index of the
// first mismatching block, or -1 when everything (including the block count)
// matches. A nil sums slice with non-empty data means "unverified" and is
// reported as block 0 — callers that allow unsummed data must check for nil
// themselves before calling.
func VerifySums(data []byte, sums []uint32) int {
	want := 0
	if len(data) > 0 {
		want = (len(data) + SumBlock - 1) / SumBlock
	}
	if len(sums) != want {
		return 0
	}
	for i, s := range sums {
		end := (i + 1) * SumBlock
		if end > len(data) {
			end = len(data)
		}
		if crc32.Checksum(data[i*SumBlock:end], castagnoli) != s {
			return i
		}
	}
	return -1
}

// VerifyRange checks only the blocks of data covering [off, off+n) against
// the stored per-block sums and returns the first bad block index, or -1
// together with the CRC32C of exactly data[off:off+n] (clamped to data).
// Partial reads pay only for the blocks they touch, and each touched byte is
// summed once: a block inside the range is checked whole and folded into the
// range's sum; an edge block is summed as its out-of-range and in-range
// parts, checked as their combination, and only the in-range part counts.
func VerifyRange(data []byte, sums []uint32, off, n int64) (bad int, sum uint32) {
	if n <= 0 || len(data) == 0 {
		return -1, 0
	}
	if want := (len(data) + SumBlock - 1) / SumBlock; len(sums) != want {
		return 0, 0
	}
	lo, hi := int(max(off, 0)), int(min(off+n, int64(len(data))))
	for i := lo / SumBlock; lo < hi; i++ {
		start, stop := i*SumBlock, min((i+1)*SumBlock, len(data))
		end := min(stop, hi)
		in := crc32.Checksum(data[lo:end], castagnoli)
		block := in
		if start < lo {
			block = combine(crc32.Checksum(data[start:lo], castagnoli), in, end-lo)
		}
		if end < stop {
			block = combine(block, crc32.Checksum(data[end:stop], castagnoli), stop-end)
		}
		if block != sums[i] {
			return i, 0
		}
		sum = combine(sum, in, end-lo)
		lo = end
	}
	return -1, sum
}

// combine returns the CRC32C of a‖b from the sums of a and b and len(b), by
// zlib's crc32_combine method: shift crcA past len(b) zero bytes — multiply
// it by x^(8·len(b)) modulo the polynomial — and add crcB.
func combine(crcA, crcB uint32, lenB int) uint32 {
	shift := uint32(1) << 31 // x^0 in the reflected bit order CRC registers use
	for k := 3; lenB != 0; lenB, k = lenB>>1, k+1 {
		if lenB&1 != 0 {
			shift = multModP(x2n[k], shift)
		}
	}
	return multModP(shift, crcA) ^ crcB
}

// x2n[k] is x^(2^k) modulo the CRC32C polynomial.
var x2n = func() (t [64]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = multModP(t[k-1], t[k-1])
	}
	return t
}()

// multModP returns a·b modulo the CRC32C polynomial, both reflected.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}
