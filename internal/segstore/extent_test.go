package segstore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestExtentWriteAndRead(t *testing.T) {
	var m extentMap
	base := []byte("aaaaaaaaaa") // 10 bytes
	m.write(2, []byte("XX"))
	if got := m.writtenBytes(); got != 2 {
		t.Errorf("write covered %d new bytes, want 2", got)
	}
	dst := make([]byte, 10)
	m.read(0, dst, base)
	if string(dst) != "aaXXaaaaaa" {
		t.Errorf("read = %q", dst)
	}
}

func TestExtentOverwriteDoesNotGrow(t *testing.T) {
	var m extentMap
	m.write(0, []byte("abcd"))
	if covered := m.coveredWithin(1, 3); covered != 2 {
		t.Errorf("coveredWithin(1, 3) = %d before an overwrite, want 2", covered)
	}
	m.write(1, []byte("ZZ"))
	dst := make([]byte, 4)
	m.read(0, dst, nil)
	if string(dst) != "aZZd" {
		t.Errorf("read = %q", dst)
	}
	if m.writtenBytes() != 4 {
		t.Errorf("writtenBytes = %d", m.writtenBytes())
	}
}

func TestExtentPartialOverlapSplits(t *testing.T) {
	var m extentMap
	m.write(0, []byte("aaaa"))
	m.write(8, []byte("bbbb"))
	m.write(2, []byte("XXXXXXXX")) // covers 2..10, overlaps both
	dst := make([]byte, 12)
	m.read(0, dst, nil)
	if string(dst) != "aaXXXXXXXXbb" {
		t.Errorf("read = %q", dst)
	}
}

func TestExtentReadBeyondBaseZeros(t *testing.T) {
	var m extentMap
	m.write(5, []byte("Z"))
	dst := make([]byte, 8)
	m.read(0, dst, []byte("ab"))
	want := []byte{'a', 'b', 0, 0, 0, 'Z', 0, 0}
	if !bytes.Equal(dst, want) {
		t.Errorf("read = %v, want %v", dst, want)
	}
}

func TestExtentTruncate(t *testing.T) {
	var m extentMap
	m.write(0, []byte("aaaa"))
	m.write(6, []byte("bbbb"))
	if released := m.truncate(8); released != 2 {
		t.Errorf("truncate released %d, want 2", released)
	}
	if m.maxEnd() != 8 {
		t.Errorf("maxEnd = %d", m.maxEnd())
	}
	if released := m.truncate(2); released != 2+2 {
		t.Errorf("second truncate released %d, want 4", released)
	}
	if m.writtenBytes() != 2 {
		t.Errorf("writtenBytes = %d", m.writtenBytes())
	}
}

func TestExtentCoalesceAdjacent(t *testing.T) {
	var m extentMap
	m.write(0, []byte("aa"))
	m.write(2, []byte("bb"))
	m.write(4, []byte("cc"))
	if len(m.exts) != 1 {
		t.Errorf("adjacent extents not coalesced: %d extents", len(m.exts))
	}
	dst := make([]byte, 6)
	m.read(0, dst, nil)
	if string(dst) != "aabbcc" {
		t.Errorf("read = %q", dst)
	}
}

// TestExtentMatchesFlatModel property-tests the extent map against a naive
// flat-buffer implementation under random sequences of writes, truncations
// and runs of appends over a non-empty base, reading back both the whole
// view and a window that may start inside, at the end of or past the base.
func TestExtentMatchesFlatModel(t *testing.T) {
	type op struct {
		Kind uint8 // 0-1 write, 2 truncate, 3 a run of appends
		Off  uint16
		Len  uint8
		Fill byte
	}
	f := func(baseLen uint16, ops []op, readOff, readLen uint16) bool {
		base := bytes.Repeat([]byte{0xBA}, 1+int(baseLen%512))
		var m extentMap
		flat := append([]byte(nil), base...)
		write := func(off int64, data []byte) {
			end := off + int64(len(data))
			want := m.writtenBytes() + int64(len(data)) - m.coveredWithin(off, end)
			m.write(off, data)
			if int64(len(flat)) < end {
				flat = append(flat, make([]byte, end-int64(len(flat)))...)
			}
			copy(flat[off:end], data)
			if got := m.writtenBytes(); got != want {
				t.Errorf("write(%d, %d bytes) left %d bytes written; coveredWithin promised %d", off, len(data), got, want)
			}
		}
		for _, o := range ops {
			off := int64(o.Off % 600)
			data := bytes.Repeat([]byte{o.Fill}, int(o.Len%64)+1)
			switch o.Kind % 4 {
			case 2:
				m.truncate(off)
				if int64(len(flat)) > off {
					flat = flat[:off]
				}
			case 3:
				// A sequential writer: each piece starts where the last
				// extent ends (or at off when nothing is written yet).
				if len(m.exts) > 0 {
					off = m.maxEnd()
				}
				for i := 0; i < 1+int(o.Len%5); i++ {
					write(off, data)
					off += int64(len(data))
				}
			default:
				write(off, data)
			}
		}
		for i, e := range m.exts {
			if len(e.data) == 0 || (i > 0 && m.exts[i-1].end() >= e.off) {
				t.Errorf("extent %d = [%d,%d) is empty, out of order or not coalesced with its neighbour", i, e.off, e.end())
			}
		}
		size := int64(len(flat))
		if m.maxEnd() > size {
			return false
		}
		got := make([]byte, size)
		m.read(0, got, base)
		if !bytes.Equal(got, flat) {
			return false
		}
		// A window into a view twice as long, over a dirty buffer: read must
		// fill every byte, and past the written bytes the view is zeros,
		// never base bytes that a truncation cut off.
		view := append(append([]byte(nil), flat...), make([]byte, len(flat)+1)...)
		lo := int(readOff) % len(view)
		hi := min(len(view), lo+int(readLen%700))
		win := bytes.Repeat([]byte{0xEE}, hi-lo)
		m.read(int64(lo), win, base)
		return bytes.Equal(win, view[lo:hi])
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExtentEmptyWrite(t *testing.T) {
	var m extentMap
	m.write(5, nil)
	if len(m.exts) != 0 {
		t.Error("empty write left an extent")
	}
}

// TestExtentRunningSums drives random writes and truncations at block scale
// and checks the running sums after every step: they cover only complete
// blocks of an extent at offset 0 and match those bytes, and commitSums of a
// one-extent map equals wire.SumsOf of its content.
func TestExtentRunningSums(t *testing.T) {
	const B = wire.SumBlock
	rnd := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		m := extentMap{hint: []int{0, 3 * B, 8 * B}[round%3]}
		var flat []byte
		for step := 0; step < 12; step++ {
			var off int64 // a write at 0 half the time there is nothing yet
			switch k := rnd.Intn(4); {
			case len(m.exts) > 0 && k < 2:
				off = m.maxEnd() // a sequential append
			case len(m.exts) > 0 || k < 2:
				off = int64(rnd.Intn(6 * B))
			}
			if rnd.Intn(8) == 0 {
				m.truncate(off)
				flat = flat[:min(int64(len(flat)), off)]
			} else {
				data := make([]byte, 1+rnd.Intn(2*B))
				rnd.Read(data)
				m.write(off, data)
				if end := off + int64(len(data)); int64(len(flat)) < end {
					flat = append(flat, make([]byte, end-int64(len(flat)))...)
				}
				copy(flat[off:], data)
			}
			if len(m.sums) > 0 && (m.exts[0].off != 0 || len(m.sums) > len(m.exts[0].data)/B) {
				t.Fatalf("round %d step %d: %d running sums past the complete blocks of an extent at 0", round, step, len(m.sums))
			}
			for k, sum := range m.sums {
				if sum != wire.SumOf(flat[k*B:(k+1)*B]) {
					t.Fatalf("round %d step %d: running sum of block %d is stale", round, step, k)
				}
			}
		}
		if len(m.exts) == 1 && m.exts[0].off == 0 {
			if got, want := m.commitSums(), wire.SumsOf(m.exts[0].data); !slices.Equal(got, want) {
				t.Fatalf("round %d: commitSums = %v, want %v", round, got, want)
			}
		}
		m.release()
	}
}

// TestExtentSizeHintTakesOneBuffer: a 1 MiB segment written as four 256 KiB
// pieces into a shadow hinted at its capacity lands in the first piece's
// buffer and never moves, and its sums are taken piece by piece.
func TestExtentSizeHintTakesOneBuffer(t *testing.T) {
	const piece = 256 << 10
	m := extentMap{hint: 1 << 20}
	data := bytes.Repeat([]byte{7}, piece)
	m.write(0, data)
	first := &m.exts[0].data[0]
	for i := 1; i < 4; i++ {
		m.write(int64(i*piece), data)
		if len(m.sums) != (i+1)*piece/wire.SumBlock {
			t.Fatalf("after piece %d: %d running sums, want %d", i, len(m.sums), (i+1)*piece/wire.SumBlock)
		}
	}
	if len(m.exts) != 1 || &m.exts[0].data[0] != first || cap(m.exts[0].data) != 1<<20 {
		t.Fatalf("four pieces took %d extents; first buffer kept: %v; cap %d", len(m.exts), &m.exts[0].data[0] == first, cap(m.exts[0].data))
	}
	m.release()
}
