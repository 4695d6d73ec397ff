package core

import (
	"errors"
	"testing"

	"repro/internal/layout"
	"repro/internal/wire"
)

func TestReadRespIntact(t *testing.T) {
	data := []byte("piece of a segment")
	good := wire.SegReadResp{OK: true, Data: data, Sum: wire.SumOf(data)}
	if !readRespIntact(good) {
		t.Fatal("clean reply rejected")
	}
	bad := good
	bad.Data = append([]byte(nil), data...)
	bad.Data[3] ^= 0x40 // damaged after the provider summed it
	if readRespIntact(bad) {
		t.Fatal("damaged reply accepted")
	}
	empty := wire.SegReadResp{OK: true}
	if !readRespIntact(empty) {
		t.Fatal("empty reply rejected")
	}
	empty.Sum = 7 // sum without payload: something is lying
	if readRespIntact(empty) {
		t.Fatal("empty reply with nonzero sum accepted")
	}
}

func TestFetchRespIntact(t *testing.T) {
	data := make([]byte, wire.SumBlock+100)
	for i := range data {
		data[i] = byte(i)
	}
	good := wire.SegFetchResp{OK: true, Data: data, Sums: wire.SumsOf(data)}
	if !fetchRespIntact(good) {
		t.Fatal("clean fetch rejected")
	}
	bad := good
	bad.Data = append([]byte(nil), data...)
	bad.Data[wire.SumBlock+1] ^= 0x01
	if fetchRespIntact(bad) {
		t.Fatal("damaged fetch accepted")
	}
	// Direct segments carry no checksum metadata; nil sums pass through.
	direct := wire.SegFetchResp{OK: true, Data: data}
	if !fetchRespIntact(direct) {
		t.Fatal("direct fetch rejected")
	}
}

// TestOpenRejectsGarbageIndex: block sums prove the bytes are the ones that
// were committed, not that they are an index. A provider serving a committed
// index version that does not parse must make Open fail with an error.
func TestOpenRejectsGarbageIndex(t *testing.T) {
	mc := newMiniCluster(t, 2)
	cl := mc.client(t, "c1", nil)
	f, err := cl.Create("/g", wire.DefaultAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entry, err := cl.Stat("/g")
	if err != nil {
		t.Fatal(err)
	}

	// A decodable index whose Sizing.Period is zero would divide by zero at
	// the first write; commit it as the next version, sums and all.
	idx, _, err := cl.fetchIndex(entry)
	if err != nil {
		t.Fatal(err)
	}
	idx.Sizing.Period = 0
	newVer := entry.Version + 1
	for _, p := range mc.providers {
		if p.Store().Stat(entry.FileID).Present {
			if err := p.Store().Install(entry.FileID, newVer, idx.Encode(), nil, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := cl.ns(wire.NSCommitBegin{FileID: entry.FileID, Path: "/g", BaseVer: entry.Version})
	begin, _ := resp.(wire.NSCommitBeginResp)
	if err != nil || !begin.OK {
		t.Fatalf("commit begin: %+v, %v", resp, err)
	}
	if err := nsErr(cl.ns(wire.NSCommitComplete{FileID: entry.FileID, Path: "/g", NewVer: newVer, Ticket: begin.Ticket})); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.OpenWrite("/g"); !errors.Is(err, layout.ErrBadIndex) {
		t.Fatalf("OpenWrite on a garbage index: err = %v, want layout.ErrBadIndex", err)
	}
	if good, err := cl.OpenVersion("/g", entry.Version); err != nil {
		t.Fatalf("the previous version no longer opens: %v", err)
	} else {
		good.Close()
	}
	// Remove only reads the index to find data segments to reclaim, so an
	// unreadable one must not keep the name from being removed.
	if err := cl.Remove("/g"); err != nil {
		t.Fatalf("Remove on a garbage index: %v", err)
	}
}
