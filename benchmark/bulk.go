package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/wire"
)

const (
	// 8 MiB files keep the process under 200 MB. The sandbox serves a page
	// the guest never touched in tens of microseconds (hypervisor, lazily
	// backed memory), so a working set that keeps growing measures the
	// hypervisor: with 32 MiB files the same code ran 10x slower on some
	// runs than on others.
	bulkFileSize = 8 << 20
	bulkReqSize  = 1 << 20
)

// bulkAttrs stripes each file over four providers in 256 KiB units, so one
// 1 MiB request fans out into four piece RPCs, and replicates it twice.
func bulkAttrs() wire.FileAttrs {
	a := wire.DefaultAttrs()
	a.Mode = wire.Hybrid
	a.StripeCount = 4
	a.StripeUnit = 256 << 10
	a.ReplDeg = hostReplDeg
	return a
}

// bulkStats accumulates one client's bulk phase.
type bulkStats struct {
	create, commit, unlink, write, read sample     // wall ms
	win                                 []*windows // requests completed, one per client
	writeBytes, readBytes               int64
	attempted, failed                   int64
	firstErr                            error
}

func (s *bulkStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *bulkStats) merge(o *bulkStats) {
	s.create.merge(&o.create)
	s.commit.merge(&o.commit)
	s.unlink.merge(&o.unlink)
	s.write.merge(&o.write)
	s.read.merge(&o.read)
	s.win = append(s.win, o.win...)
	s.writeBytes += o.writeBytes
	s.readBytes += o.readBytes
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// bulkClient is one closed-loop client streaming whole files and reading
// them back at random offsets.
type bulkClient struct {
	cl                *core.Client
	dir               string
	attrs             wire.FileAttrs
	fileSize, reqSize int64
	// keepAll keeps every file written (the model, whose read phase must
	// exceed the providers' cache). Otherwise a file is removed once the
	// next one has committed, except the first, which the read phase reads.
	keepAll bool
	pat     *pattern
	rng     *rand.Rand
	tr      *tracer
	ep      *tracedEndpoint
	files   int // files written so far
	last    int // most recent committed file
}

func (b *bulkClient) path(k int) string { return fmt.Sprintf("%s/bulk-%05d", b.dir, k) }

// writeFile streams one file in reqSize requests and commits it. Unless
// keepAll, it then removes the file written before, so the newest file stays
// until the run ends and the time its lazy replicas take to settle can be
// measured from its commit.
func (b *bulkClient) writeFile(st *bulkStats) {
	k := b.files
	b.files++
	path := b.path(k)
	st.attempted++
	t0 := time.Now()
	f, err := b.cl.Create(path, b.attrs)
	if err != nil {
		st.fail(fmt.Errorf("create %s: %w", path, err))
		return
	}
	st.create.add(ms(time.Since(t0)))
	for off := int64(0); off < b.fileSize; off += b.reqSize {
		st.attempted++
		op := b.tr.beginOp(b.ep, "bulk_write")
		t := time.Now()
		_, err := f.WriteAt(b.pat.window(off, int(b.reqSize)), off)
		op.end(err != nil)
		if err != nil {
			st.fail(fmt.Errorf("write %s at %d: %w", path, off, err))
			f.Drop()
			return
		}
		lat := ms(time.Since(t))
		st.write.add(lat)
		st.writeBytes += b.reqSize
		st.win[0].observe(lat)
	}
	st.attempted++
	op := b.tr.beginOp(b.ep, "bulk_commit")
	t := time.Now()
	err = f.Close()
	op.end(err != nil)
	if err != nil {
		st.fail(fmt.Errorf("close %s: %w", path, err))
		return
	}
	st.commit.add(ms(time.Since(t)))
	old := b.last
	b.last = k
	if b.keepAll || old == 0 {
		return
	}
	st.attempted++
	op = b.tr.beginOp(b.ep, "bulk_unlink")
	t = time.Now()
	err = b.cl.Remove(b.path(old))
	op.end(err != nil)
	if err != nil {
		st.fail(fmt.Errorf("remove %s: %w", b.path(old), err))
		return
	}
	st.unlink.add(ms(time.Since(t)))
}

// readLoop reads reqSize bytes at seeded random offsets until the deadline —
// of the client's first file, or of any file when all are kept — comparing
// every buffer with what was written.
func (b *bulkClient) readLoop(st *bulkStats, deadline time.Time) {
	nfiles := 1
	if b.keepAll {
		nfiles = b.last + 1
	}
	handles := make([]*core.File, nfiles)
	for k := range handles {
		st.attempted++
		f, err := b.cl.Open(b.path(k))
		if err != nil {
			st.fail(fmt.Errorf("open %s: %w", b.path(k), err))
			return
		}
		defer f.Close()
		handles[k] = f
	}
	buf := make([]byte, b.reqSize)
	for time.Now().Before(deadline) {
		k := b.rng.Intn(nfiles)
		off := b.rng.Int63n((b.fileSize-b.reqSize)/4096+1) * 4096
		st.attempted++
		op := b.tr.beginOp(b.ep, "bulk_read")
		t := time.Now()
		n, err := handles[k].ReadAt(buf, off)
		if err == io.EOF {
			err = nil
		}
		if err == nil && !bytes.Equal(buf[:n], b.pat.window(off, int(b.reqSize))) {
			err = errWrongBytes
		}
		op.end(err != nil)
		if err != nil {
			st.fail(fmt.Errorf("read %s at %d: %w", b.path(k), off, err))
			continue
		}
		lat := ms(time.Since(t))
		st.read.add(lat)
		st.readBytes += int64(n)
		st.win[0].observe(lat)
	}
}

// bulkPhase is one timed phase over all clients.
type bulkPhase struct {
	st   *bulkStats
	wall time.Duration
	cpu  time.Duration
}

func (p bulkPhase) ops() int { return p.st.write.n() + p.st.read.n() }

// reqPerS is the phase's median-window rate of completed requests.
func (p bulkPhase) reqPerS() float64 { return windowRate(p.wall, p.st.win...) }

// reqP95 is the phase's median-window 95th percentile of request latency.
func (p bulkPhase) reqP95() float64 { return windowPct(p.wall, 95, p.st.win...) }

func runBulkPhase(clients []*bulkClient, body func(*bulkClient, *bulkStats)) bulkPhase {
	out := make([]*bulkStats, len(clients))
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for i, b := range clients {
		out[i] = &bulkStats{win: []*windows{{t0: t0}}}
		wg.Add(1)
		go func(b *bulkClient, st *bulkStats) {
			defer wg.Done()
			body(b, st)
		}(b, out[i])
	}
	wg.Wait()
	p := bulkPhase{st: &bulkStats{}, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	for _, s := range out {
		p.st.merge(s)
	}
	return p
}

// writePhase has every client write whole files until dur has passed, and
// two at the least: from a client's third file on, every file written also
// removes one, so a phase after the first always has unlinks to time.
func writePhase(clients []*bulkClient, dur time.Duration) bulkPhase {
	deadline := time.Now().Add(dur)
	return runBulkPhase(clients, func(b *bulkClient, st *bulkStats) {
		for n := 0; n < 2 || time.Now().Before(deadline); n++ {
			b.writeFile(st)
		}
	})
}

// writeFiles has every client write n whole files: a fixed amount of work,
// for a deployment whose later state should not depend on how fast this went.
func writeFiles(clients []*bulkClient, n int) bulkPhase {
	return runBulkPhase(clients, func(b *bulkClient, st *bulkStats) {
		for i := 0; i < n; i++ {
			b.writeFile(st)
		}
	})
}

func readPhase(clients []*bulkClient, dur time.Duration) bulkPhase {
	deadline := time.Now().Add(dur)
	return runBulkPhase(clients, func(b *bulkClient, st *bulkStats) { b.readLoop(st, deadline) })
}

// awaitReplicas waits until every segment of the given files, index segment
// included, is committed on at least hostReplDeg providers, and returns how
// long that took from now.
func awaitReplicas(d *hostDeploy, cl *core.Client, paths []string, timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	var segs []ids.SegID
	for _, p := range paths {
		entry, err := cl.Stat(p)
		if err != nil {
			return 0, fmt.Errorf("stat %s: %w", p, err)
		}
		data, err := cl.SegmentsOf(p)
		if err != nil {
			return 0, fmt.Errorf("segments of %s: %w", p, err)
		}
		segs = append(append(segs, entry.FileID), data...)
	}
	for {
		short := 0
		for _, seg := range segs {
			n := 0
			for _, p := range d.providers {
				if st := p.Store().Stat(seg); st.Present && st.Version > 0 {
					n++
				}
			}
			if n < hostReplDeg {
				short++
			}
		}
		if short == 0 {
			return time.Since(t0), nil
		}
		if time.Since(t0) > timeout {
			return 0, fmt.Errorf("%d of %d segments below replication degree %d after %v", short, len(segs), hostReplDeg, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bulkHost is the byte-path workload: a write phase, a wait for the lazy
// replicas of the files kept, and a read phase, each on hostClients
// closed-loop clients.
func bulkHost(cfg runConfig, rec *recorder) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	d, err := setupMedian(rec, func() (*hostDeploy, error) { return newHostWithDirs(tr) }, (*hostDeploy).close)
	if err != nil {
		return err
	}
	defer d.closeAfterRun()

	clients := make([]*bulkClient, len(d.clients))
	for i, cl := range d.clients {
		clients[i] = &bulkClient{cl: cl, dir: clientDir(i), attrs: bulkAttrs(), fileSize: bulkFileSize, reqSize: bulkReqSize,
			tr: tr, ep: tr.endpoint(wire.NodeID(cl.Name())),
			pat: newPattern(cfg.seed*1000+int64(i), bulkReqSize+4099, bulkReqSize),
			rng: rand.New(rand.NewSource(cfg.seed*1000 + 500 + int64(i)))}
	}
	settle := func() (time.Duration, error) {
		// The read phase must find every kept segment at full replication:
		// reads are spread over replicas, and a read phase racing the
		// replication traffic would measure neither.
		var kept []string
		for _, b := range clients {
			kept = append(kept, b.path(0))
			if b.last != 0 {
				kept = append(kept, b.path(b.last))
			}
		}
		return awaitReplicas(d, d.clients[0], kept, 60*time.Second)
	}

	// Warm-up: the heap grows to its working size while files are written
	// and garbage waits for collection. Until then every request touches
	// pages the process never used, and the page faults, not the byte path,
	// set the rate.
	writePhase(clients, 2*warmupFor(cfg.seconds))
	readPhase(clients, warmupFor(cfg.seconds))

	if !cfg.trace {
		w := writePhase(clients, secs(cfg.seconds/2))
		if _, err := settle(); err != nil {
			return err
		}
		r := readPhase(clients, secs(cfg.seconds/2))
		all := &bulkStats{}
		all.merge(w.st)
		all.merge(r.st)
		rec.count(all.attempted, all.failed, all.firstErr)
		ops := w.ops() + r.ops()
		// Requests per second and the request tail over both phases: each
		// phase's median window, weighted by the phase's share of the time.
		// (The 95th percentile of writes and reads pooled sits wherever the
		// two distributions happen to overlap, and moved by 30 % between runs
		// of the same code.)
		wf := w.wall.Seconds() / (w.wall + r.wall).Seconds()
		rec.set("ops_per_s", wf*w.reqPerS()+(1-wf)*r.reqPerS(), ops)
		rec.set("op_p95_ms", wf*w.reqP95()+(1-wf)*r.reqP95(), ops)
		rec.set("create_p50_ms", all.create.median(), all.create.n())
		rec.set("commit_p50_ms", all.commit.median(), all.commit.n())
		rec.set("read_p50_ms", all.read.median(), all.read.n())
		rec.set("unlink_p50_ms", all.unlink.median(), all.unlink.n())
		rec.set("write_MB_per_s", w.reqPerS()*bulkReqSize/1e6, w.st.write.n())
		rec.set("read_MB_per_s", r.reqPerS()*bulkReqSize/1e6, r.st.read.n())
		rec.set("cpu_us_per_op", float64((w.cpu+r.cpu).Microseconds())/float64(ops), ops)
		rec.set("peak_rss_MB", peakRSSMB(), 1)
		return nil
	}

	// Traced run: each phase runs a quarter of its time untraced, for the
	// overhead figure, and the rest traced.
	w0 := writePhase(clients, secs(cfg.seconds/8))
	snap0 := snapshotObs(d.obs)
	tr.on.Store(true)
	w1 := writePhase(clients, secs(cfg.seconds*3/8))
	tr.on.Store(false)
	snapW := snapshotObs(d.obs)
	settled, err := settle()
	if err != nil {
		return err
	}
	stored := d.storedBytes()
	r0 := readPhase(clients, secs(cfg.seconds/8))
	snapR := snapshotObs(d.obs)
	tr.on.Store(true)
	r1 := readPhase(clients, secs(cfg.seconds*3/8))
	tr.on.Store(false)
	snap1 := snapshotObs(d.obs)

	all := &bulkStats{}
	for _, p := range []bulkPhase{w0, w1, r0, r1} {
		all.merge(p.st)
	}
	rec.count(all.attempted, all.failed, all.firstErr)
	spans := tr.drain()
	a := analyze(tr, spans, d.roles(tr), 1000, w1.wall+r1.wall)
	ops := w1.ops() + r1.ops()
	a.commonMetrics(rec, float64(ops))
	total := a.bulkMetrics(rec)
	a.shares(rec, total, ops)
	userBytes := float64(w1.st.writeBytes + r1.st.readBytes)
	wireBytes := (snapW.wireBytes - snap0.wireBytes) + (snap1.wireBytes - snapR.wireBytes)
	rec.set("transport.wire_bytes_per_user_byte", wireBytes/userBytes, ops)
	rec.set("provider.replica_settle_s", settled.Seconds(), 1)
	// Each client keeps its first and its newest file.
	rec.set("provider.stored_bytes_per_user_byte", float64(stored)/float64(2*len(clients)*bulkFileSize), 1)
	rec.set("core.retries_per_kop", (snap1.clientRetries-snap0.clientRetries)/float64(ops)*1000, ops)
	untraced := float64(w0.ops()+r0.ops()) / (w0.wall + r0.wall).Seconds()
	traced := float64(ops) / (w1.wall + r1.wall).Seconds()
	rec.set("trace.overhead_frac", 1-traced/untraced, ops)
	runProbes(rec, cfg.seed)
	return rec.writeTrace(tr, spans)
}

// bulkMetrics reports the client library's own time per request and how
// many piece RPCs it keeps in flight, and returns the pooled breakdown.
func (a *analysis) bulkMetrics(rec *recorder) breakdown {
	wt, wself, wn := a.opTotals("bulk_write")
	rt, rself, rn := a.opTotals("bulk_read")
	rec.set("core.bulk_write.self_us_per_MiB", wself.median(), wn)
	rec.set("core.bulk_read.self_us_per_MiB", rself.median(), rn)
	if wt.dur > 0 {
		rec.set("core.inflight_mean.bulk_write", float64(wt.callDur)/float64(wt.dur), wn)
	}
	if rt.dur > 0 {
		rec.set("core.inflight_mean.bulk_read", float64(rt.callDur)/float64(rt.dur), rn)
	}
	wt.add(rt)
	return wt
}
