package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/namespace"
	"repro/internal/segstore"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// Probes time layers that have no interface to decorate — segstore, wire,
// namespace without a transport in front — by calling their public
// functions directly with the workloads' own sizes. They do not depend on
// the workload, so every traced run reports them.

// probeBatches times fn in batches and returns the median per-call time in
// ns: one call of a sub-microsecond function is below the clock's resolution,
// and a mean over everything would keep every scheduling gap.
func probeBatches(batches, perBatch int, fn func()) float64 {
	var s sample
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		s.add(float64(time.Since(t)) / float64(perBatch))
	}
	return s.median()
}

// allocsPer counts heap allocations per call of fn.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func runProbes(rec *recorder, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	small := make([]byte, smallFileSize)
	big := make([]byte, bulkReqSize)
	rng.Read(small)
	rng.Read(big)
	probeSegstore(rec, small, big)
	probeWire(rec, small, big)
	probeNamespace(rec)
}

func probeSegstore(rec *recorder, small, big []byte) {
	clock := simtime.Real()
	st := segstore.New(clock, disk.New(clock, "probe", hostDiskModel(), 4<<30))
	const owner = "probe#1"
	commit := func(seg ids.SegID, data []byte) {
		// What a provider does for one written segment of a commit.
		if _, _, err := st.Shadow(owner, seg, 0, time.Minute, 1, 0); err != nil {
			panic(fmt.Sprintf("probe: shadow: %v", err))
		}
		if _, err := st.WriteShadow(owner, seg, 0, data); err != nil {
			panic(fmt.Sprintf("probe: write shadow: %v", err))
		}
		if _, _, err := st.Prepare(owner, seg); err != nil {
			panic(fmt.Sprintf("probe: prepare: %v", err))
		}
		if _, _, err := st.CommitPrepared(owner, seg); err != nil {
			panic(fmt.Sprintf("probe: commit: %v", err))
		}
	}
	const n = 2000
	segs := make([]ids.SegID, n)
	for i := range segs {
		segs[i] = ids.New()
	}
	i := 0
	ns := probeBatches(20, n/20, func() { commit(segs[i], small); i++ })
	rec.set("segstore.shadow_write_commit_us.12KiB", ns/1e3, n)
	i = 0
	ns = probeBatches(20, n/20, func() {
		if _, _, err := st.Read(segs[i], 0, 0, smallFileSize); err != nil {
			panic(fmt.Sprintf("probe: read: %v", err))
		}
		i++
	})
	rec.set("segstore.read_us.12KiB", ns/1e3, n)
	rec.set("segstore.allocs_per_commit", allocsPer(200, func() { commit(ids.New(), small) }), 200)

	const nBig = 48
	var lastBig ids.SegID
	ns = probeBatches(nBig/4, 4, func() {
		if !lastBig.IsZero() {
			st.Delete(lastBig)
		}
		lastBig = ids.New()
		commit(lastBig, big)
	})
	rec.set("segstore.write_MiB_per_s.1MiB", 1e9/ns, nBig)
	ns = probeBatches(20, 10, func() {
		if _, _, err := st.Read(lastBig, 0, 0, bulkReqSize); err != nil {
			panic(fmt.Sprintf("probe: read: %v", err))
		}
	})
	rec.set("segstore.read_MiB_per_s.1MiB", 1e9/ns, 200)
}

func probeWire(rec *recorder, small, big []byte) {
	var buf []byte
	envelope := func(msg any) func() {
		return func() {
			var err error
			if buf, err = wire.AppendEnvelope(buf[:0], "127.0.0.1:7001", 0, 0, msg); err != nil {
				panic(fmt.Sprintf("probe: encode: %v", err))
			}
			if _, _, _, _, err = wire.DecodeEnvelope(buf); err != nil {
				panic(fmt.Sprintf("probe: decode: %v", err))
			}
		}
	}
	lookup := envelope(wire.NSLookup{Path: "/c0/g1/f0000001"})
	rec.set("wire.roundtrip_ns.small", probeBatches(40, 500, lookup), 20000)
	rec.set("wire.allocs_per_roundtrip.small", allocsPer(1000, lookup), 1000)
	segWrite := envelope(wire.SegWrite{Owner: "127.0.0.1:7001#1", Seg: ids.New(), Data: small})
	rec.set("wire.roundtrip_ns.SegWrite_12KiB", probeBatches(40, 100, segWrite), 4000)

	resp := wire.SegReadResp{OK: true, Version: 1, Data: big, Sum: wire.SumOf(big)}
	ns := probeBatches(20, 5, func() {
		var err error
		if buf, err = wire.AppendReply(buf[:0], resp, ""); err != nil {
			panic(fmt.Sprintf("probe: encode reply: %v", err))
		}
		if _, _, err = wire.DecodeReply(buf); err != nil {
			panic(fmt.Sprintf("probe: decode reply: %v", err))
		}
	})
	rec.set("wire.roundtrip_MiB_per_s.SegReadResp_1MiB", 1e9/ns, 100)
	ns = probeBatches(20, 10, func() { wire.SumsOf(big) })
	rec.set("wire.sums_MiB_per_s", 1e9/ns, 200)
}

func probeNamespace(rec *recorder) {
	clock := simtime.Real()
	srv, err := namespace.NewServer(clock, namespace.Config{OpCost: time.Nanosecond}, &namespace.MemWAL{})
	if err != nil {
		panic(fmt.Sprintf("probe: namespace: %v", err))
	}
	// The namespace operations of one small-file session, straight into
	// Server.Handle.
	attrs := wire.DefaultAttrs()
	i := 0
	session := func() {
		path := fmt.Sprintf("/f%07d", i)
		i++
		fid := ids.New()
		must := func(_ any, err error) {
			if err != nil {
				panic(fmt.Sprintf("probe: namespace handle: %v", err))
			}
		}
		must(srv.Handle(wire.NSCreate{Path: path, FileID: fid, Attrs: attrs}))
		r, err := srv.Handle(wire.NSCommitBegin{FileID: fid, Path: path})
		must(r, err)
		must(srv.Handle(wire.NSCommitComplete{FileID: fid, Path: path, NewVer: 1, Ticket: r.(wire.NSCommitBeginResp).Ticket, NewSize: smallFileSize}))
		must(srv.Handle(wire.NSLookup{Path: path}))
		must(srv.Handle(wire.NSLookup{Path: path}))
		must(srv.Handle(wire.NSRemove{Path: path}))
	}
	const opsPerSession = 6
	rec.set("namespace.handle_ns_per_op", probeBatches(40, 100, session)/opsPerSession, 4000*opsPerSession)

	// FileWAL appends go to a file system; the figure depends on the
	// sandbox's and is a diagnostic only.
	dir, err := os.MkdirTemp(rec.cfg.outDir, "wal-probe-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	wal, err := namespace.NewFileWAL(dir)
	if err != nil {
		return
	}
	defer wal.Close()
	var s sample
	for k := 0; k < 300; k++ {
		t := time.Now()
		if err := wal.Append(namespace.Op{Kind: namespace.OpMkdir, Path: fmt.Sprintf("/d%d", k)}); err != nil {
			return
		}
		s.add(float64(time.Since(t)) / 1e3)
	}
	rec.set("namespace.wal_append_us_p50", s.median(), s.n())
}
