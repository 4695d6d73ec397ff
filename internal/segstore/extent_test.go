package segstore

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
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
