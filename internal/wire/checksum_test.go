package wire

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestSumsOfRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, SumBlock - 1, SumBlock, SumBlock + 1, 3*SumBlock + 17} {
		data := make([]byte, n)
		rng.Read(data)
		sums := SumsOf(data)
		if n == 0 {
			if sums != nil {
				t.Fatalf("SumsOf(empty) = %v, want nil", sums)
			}
			continue
		}
		want := (n + SumBlock - 1) / SumBlock
		if len(sums) != want {
			t.Fatalf("len(SumsOf(%d)) = %d, want %d", n, len(sums), want)
		}
		if got := VerifySums(data, sums); got != -1 {
			t.Fatalf("VerifySums(clean %d bytes) = %d, want -1", n, got)
		}
	}
}

func TestSumOfMatchesCastagnoli(t *testing.T) {
	data := []byte("sorrento")
	want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	if got := SumOf(data); got != want {
		t.Fatalf("SumOf = %#x, want %#x", got, want)
	}
}

func TestVerifySumsDetectsFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 2*SumBlock+100)
	rng.Read(data)
	sums := SumsOf(data)

	// Flip one bit in each block in turn; VerifySums must name that block.
	for block := 0; block < len(sums); block++ {
		pos := block*SumBlock + rng.Intn(minInt(SumBlock, len(data)-block*SumBlock))
		data[pos] ^= 0x10
		if got := VerifySums(data, sums); got != block {
			t.Fatalf("flip in block %d: VerifySums = %d", block, got)
		}
		data[pos] ^= 0x10
	}

	// Wrong sum count is itself a corruption signal.
	if got := VerifySums(data, sums[:len(sums)-1]); got != 0 {
		t.Fatalf("VerifySums(short sums) = %d, want 0", got)
	}
}

func TestVerifyRangeCoversOnlyTouchedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 4*SumBlock)
	rng.Read(data)
	sums := SumsOf(data)

	// Corrupt block 3 only; a read confined to blocks 0-1 stays clean.
	data[3*SumBlock+5] ^= 0x80
	if got, sum := VerifyRange(data, sums, 0, 2*SumBlock); got != -1 || sum != SumOf(data[:2*SumBlock]) {
		t.Fatalf("VerifyRange(clean window) = %d, %#x, want -1 and the window's sum", got, sum)
	}
	// A read touching block 3 trips.
	if got, _ := VerifyRange(data, sums, 3*SumBlock-10, 20); got != 3 {
		t.Fatalf("VerifyRange(dirty window) = %d, want 3", got)
	}
	// Zero-length and empty-data reads are vacuously clean.
	if got, sum := VerifyRange(data, sums, SumBlock, 0); got != -1 || sum != 0 {
		t.Fatalf("VerifyRange(n=0) = %d, %#x, want -1, 0", got, sum)
	}
	if got, sum := VerifyRange(nil, sums, 0, 10); got != -1 || sum != 0 {
		t.Fatalf("VerifyRange(empty data) = %d, %#x, want -1, 0", got, sum)
	}
	// A range running past the data is clamped to it.
	if got, sum := VerifyRange(data[:SumBlock+7], SumsOf(data[:SumBlock+7]), SumBlock, SumBlock); got != -1 || sum != SumOf(data[SumBlock:SumBlock+7]) {
		t.Fatalf("VerifyRange(past the end) = %d, %#x, want -1 and the tail's sum", got, sum)
	}

	// The property behind serving a read from one CRC pass: over random
	// lengths and ranges — block-aligned, one byte, the last partial block,
	// anything — the sum is the CRC32C of exactly the range, and one flipped
	// bit inside the range, or in the out-of-range part of an edge block, is
	// blamed on the block holding it (the first bad covering block, as a
	// verify-then-sum pass reports). A flip in an untouched block goes unseen.
	for trial := 0; trial < 400; trial++ {
		size := 1 + rng.Intn(5*SumBlock)
		data := make([]byte, size)
		rng.Read(data)
		sums := SumsOf(data)
		blocks := len(sums)

		var off, n int
		switch trial % 4 {
		case 0: // block-aligned
			first := rng.Intn(blocks)
			off, n = first*SumBlock, (1+rng.Intn(blocks-first))*SumBlock
		case 1: // one byte
			off, n = rng.Intn(size), 1
		case 2: // the last, possibly partial, block
			off = (blocks - 1) * SumBlock
			n = size - off
		default:
			off = rng.Intn(size)
			n = 1 + rng.Intn(size-off)
		}
		end := min(off+n, size)
		bad, sum := VerifyRange(data, sums, int64(off), int64(n))
		if bad != -1 || sum != SumOf(data[off:end]) {
			t.Fatalf("trial %d: size %d [%d,+%d): got %d, %#x; want -1, %#x", trial, size, off, n, bad, sum, SumOf(data[off:end]))
		}

		// check flips one bit at pos, expects it blamed on block want (-1:
		// unseen), and flips it back.
		check := func(pos, want int) {
			t.Helper()
			mask := byte(1) << uint(rng.Intn(8))
			data[pos] ^= mask
			got, _ := VerifyRange(data, sums, int64(off), int64(n))
			data[pos] ^= mask
			if got != want {
				t.Fatalf("trial %d: size %d [%d,+%d), flip at %d: blamed %d, want %d", trial, size, off, n, pos, got, want)
			}
		}
		inside := off + rng.Intn(end-off)
		check(inside, inside/SumBlock)
		first, last := off/SumBlock, (end-1)/SumBlock
		if start := first * SumBlock; start < off {
			check(start+rng.Intn(off-start), first)
		}
		if stop := min((last+1)*SumBlock, size); end < stop {
			check(end+rng.Intn(stop-end), last)
		}
		if first > 0 {
			check(rng.Intn(first*SumBlock), -1)
		}
	}
}

// BenchmarkVerifyRange serves a 256 KiB range at an unaligned offset of a
// 1 MiB version: verifying the covering blocks and then summing the range
// for the wire, against VerifyRange's one pass that does both.
func BenchmarkVerifyRange(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	sums := SumsOf(data)
	const off, n = 100_000, 256 << 10
	b.Run("verify_then_sum", func(b *testing.B) {
		b.SetBytes(n)
		for b.Loop() {
			for i := off / SumBlock; i <= (off+n-1)/SumBlock; i++ {
				if crc32.Checksum(data[i*SumBlock:(i+1)*SumBlock], castagnoli) != sums[i] {
					b.Fatal("clean block failed to verify")
				}
			}
			benchSum = SumOf(data[off : off+n])
		}
	})
	b.Run("one_pass", func(b *testing.B) {
		b.SetBytes(n)
		for b.Loop() {
			var bad int
			if bad, benchSum = VerifyRange(data, sums, off, n); bad >= 0 {
				b.Fatal("clean range failed to verify")
			}
		}
	})
}

var benchSum uint32

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
