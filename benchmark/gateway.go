package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proxy"
	"repro/internal/wire"
)

// The gateway workload is the only one through internal/proxy. Independent
// thin clients make an open loop: requests are due on a seeded Poisson
// schedule whatever the system's state, each runs on its own goroutine, and
// its latency counts from the instant it was due.
const (
	// Frozen open-loop rates, req/s over both dispatchers: about 25, 50 and
	// 75 % of what the seed commit sustains on the quiet 2-core sandbox
	// (a closed loop of reads alone reaches ~7000/s; a write session costs
	// about twenty reads). The traced run steps through all three. The
	// end-to-end run holds the lowest: the sandbox's hypervisor at times
	// takes half the CPU away, and a rate that then saturates would report
	// the hypervisor's mood as a fifty-fold latency regression.
	gatewayRateLow  = 1000
	gatewayRateMid  = 2000
	gatewayRateHigh = 3000

	gwDispatchers   = 2   // one seeded schedule and one ThinClient each
	gwInflightCap   = 512 // per dispatcher; a request beyond it is refused, and a refusal is a failure
	gwReadFiles     = 256
	gwWriteFiles    = 32 // per dispatcher, disjoint from the read set
	gwFileSize      = 64 << 10
	gwReadSize      = 1 << 10
	gwWriteSize     = 4 << 10
	gwZipfS         = 1.1
	gwLatencyLimit  = 5.0 // ms at p99 for a rate to count as sustained
	gwBacklogLimit  = 32  // in flight when a step ends, beyond which the backlog was growing
	gwPatternPeriod = 1<<20 + 4099
)

type gwKind uint8

const (
	gwRead  gwKind = iota // 90 %: PRead 1 KiB, Zipf over the read set
	gwWrite               // 8 %: PWrite 4 KiB + PCommit on a file of the write set
	gwChurn               // 2 %: PutFile of a new 4 KiB file, then PRemove
)

// gwReq is one scheduled request; the schedule is a pure function of the
// seed.
type gwReq struct {
	Due  time.Duration // since the step began
	Kind gwKind
	File int32 // index into the read set or the dispatcher's write set
	Off  int32
}

// gwSchedule draws one dispatcher's Poisson arrivals for dur at rate req/s.
func gwSchedule(seed int64, disp int, rate float64, dur time.Duration) []gwReq {
	rng := rand.New(rand.NewSource(seed*7919 + int64(disp)*104729 + int64(rate)))
	zipf := rand.NewZipf(rng, gwZipfS, 1, gwReadFiles-1)
	var out []gwReq
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return out
		}
		rq := gwReq{Due: due}
		switch u := rng.Float64(); {
		case u < 0.90:
			rq.Kind = gwRead
			rq.File = int32(zipf.Uint64())
			rq.Off = int32(rng.Intn(gwFileSize/gwReadSize)) * gwReadSize
		case u < 0.98:
			rq.Kind = gwWrite
			// The file is the dispatcher's next in turn; see run.
			rq.Off = int32(rng.Intn(gwFileSize/gwWriteSize)) * gwWriteSize
		default:
			rq.Kind = gwChurn
		}
		out = append(out, rq)
	}
}

func gwReadPath(i int) string        { return fmt.Sprintf("/g/r%03d", i) }
func gwWritePath(disp, i int) string { return fmt.Sprintf("/g/w%d-%02d", disp, i) }

// gwFileOffset places file i in the pattern.
func gwFileOffset(i int) int64 { return int64(i) * 65537 }

// gwStats is what one dispatcher's requests record; request goroutines
// share it.
type gwStats struct {
	mu                         sync.Mutex
	all, read, commit, create  sample // ms from the due instant
	unlink                     sample // ms from its own start (it follows the create)
	late                       sample // ms the dispatcher sent after the due instant
	win                        windows
	readBytes, writeBytes      int64
	attempted, failed, refused int64
	firstErr                   error
	inflightEnd                int64
}

func (s *gwStats) fail(err error) {
	s.mu.Lock()
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// gwDispatcher issues one schedule through one thin client. Open-loop
// requests overlap on the one endpoint, so they open no operation spans: a
// call cannot be told to belong to one of several concurrent operations.
// The closed loops, one request at a time per endpoint, do.
type gwDispatcher struct {
	id        int
	tc        *proxy.ThinClient
	pat       *pattern
	tr        *tracer
	ep        *tracedEndpoint
	fileMu    [gwWriteFiles]sync.Mutex // one write session per file at a time
	lastOff   [gwWriteFiles]int32      // last committed write per file, for the final check
	lastSeq   [gwWriteFiles]int64
	nextWrite int // write sessions started, by the dispatching goroutine alone
	seq       atomic.Int64
	inflight  atomic.Int64
	maxIn     atomic.Int64
}

// writeData is the payload of the dispatcher's seq-th write.
func (g *gwDispatcher) writeData(seq int64) []byte {
	return g.pat.window(seq*4099+int64(g.id)*1000003, gwWriteSize)
}

// exec runs one request and records its latency from due.
func (g *gwDispatcher) exec(rq gwReq, due time.Time, st *gwStats) {
	var err error
	var unlinkMs float64
	switch rq.Kind {
	case gwRead:
		var data []byte
		data, _, _, err = g.tc.Read(gwReadPath(int(rq.File)), int64(rq.Off), gwReadSize)
		if err == nil && !bytes.Equal(data, g.pat.window(gwFileOffset(int(rq.File))+int64(rq.Off), gwReadSize)) {
			err = errWrongBytes
		}
	case gwWrite:
		seq := g.seq.Add(1)
		sess := fmt.Sprintf("d%d-%d", g.id, seq)
		path := gwWritePath(g.id, int(rq.File))
		g.fileMu[rq.File].Lock()
		err = g.tc.Write(sess, path, int64(rq.Off), g.writeData(seq), false, 0)
		if err == nil {
			_, _, err = g.tc.Commit(sess, path)
		}
		if err == nil {
			g.lastOff[rq.File], g.lastSeq[rq.File] = rq.Off, seq
		}
		g.fileMu[rq.File].Unlock()
	case gwChurn:
		seq := g.seq.Add(1)
		path := fmt.Sprintf("/g/t%d-%d", g.id, seq)
		_, err = g.tc.PutFile(path, g.writeData(seq), hostReplDeg)
		if err == nil {
			createMs := ms(time.Since(due))
			t := time.Now()
			err = g.tc.Remove(path)
			unlinkMs = ms(time.Since(t))
			if err == nil {
				st.mu.Lock()
				st.create.add(createMs)
				st.unlink.add(unlinkMs)
				st.mu.Unlock()
			}
		}
	}
	if err != nil {
		st.fail(fmt.Errorf("thin request kind %d: %w", rq.Kind, err))
		return
	}
	lat := ms(time.Since(due))
	st.mu.Lock()
	st.all.add(lat)
	st.win.observe(lat)
	switch rq.Kind {
	case gwRead:
		st.read.add(lat)
		st.readBytes += gwReadSize
	case gwWrite:
		st.commit.add(lat)
		st.writeBytes += gwWriteSize
	case gwChurn:
		st.writeBytes += gwWriteSize
	}
	st.mu.Unlock()
}

// run issues sched in an open loop starting at t0 and waits for the
// requests it started.
func (g *gwDispatcher) run(sched []gwReq, t0 time.Time) *gwStats {
	st := &gwStats{win: windows{t0: t0}}
	var wg sync.WaitGroup
	for _, rq := range sched {
		if rq.Kind == gwWrite {
			// Write sessions take the dispatcher's files in turn, across
			// steps, so two sessions on one file lie a whole round apart. A
			// session opened within milliseconds of the previous commit on
			// the same file can find only owners that still advertise the
			// old version and fail with "segment not locatable" — ROADMAP
			// item 1's location gap, a fault of the program that the
			// benchmark's workloads must not trip over.
			rq.File = int32(g.nextWrite % gwWriteFiles)
			g.nextWrite++
		}
		due := t0.Add(rq.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.mu.Lock()
		st.attempted++
		st.late.add(ms(time.Since(due)))
		st.mu.Unlock()
		n := g.inflight.Add(1)
		if n > gwInflightCap {
			// The in-flight cap refuses the request: a thin client that is
			// turned away has failed, however fast the rest are served.
			g.inflight.Add(-1)
			st.mu.Lock()
			st.refused++
			st.mu.Unlock()
			st.fail(fmt.Errorf("refused: %d requests in flight", gwInflightCap))
			continue
		}
		for {
			m := g.maxIn.Load()
			if n <= m || g.maxIn.CompareAndSwap(m, n) {
				break
			}
		}
		wg.Add(1)
		go func(rq gwReq) {
			defer wg.Done()
			g.exec(rq, due, st)
			g.inflight.Add(-1)
		}(rq)
	}
	st.inflightEnd = g.inflight.Load()
	wg.Wait()
	return st
}

// gwStep is the pooled outcome of one open-loop step.
type gwStep struct {
	st        *gwStats
	wins      []*windows
	wall, cpu time.Duration
	from      int64 // tracer time the step began at
}

func mergeGwStats(parts []*gwStats) (*gwStats, []*windows) {
	all := &gwStats{}
	var wins []*windows
	for _, p := range parts {
		all.all.merge(&p.all)
		all.read.merge(&p.read)
		all.commit.merge(&p.commit)
		all.create.merge(&p.create)
		all.unlink.merge(&p.unlink)
		all.late.merge(&p.late)
		all.readBytes += p.readBytes
		all.writeBytes += p.writeBytes
		all.attempted += p.attempted
		all.failed += p.failed
		all.refused += p.refused
		all.inflightEnd += p.inflightEnd
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		wins = append(wins, &p.win)
	}
	return all, wins
}

// gwEnv is a host deployment with the gateway's files preloaded.
type gwEnv struct {
	d     *hostDeploy
	disps []*gwDispatcher
}

func (e *gwEnv) close() { e.d.close() }

func newGwEnv(seed int64, tr *tracer) (*gwEnv, error) {
	d, err := newHost(hostOpts{thin: gwDispatchers, tracer: tr})
	if err != nil {
		return nil, err
	}
	e := &gwEnv{d: d}
	pat := newPattern(seed, gwPatternPeriod, gwFileSize)
	if err := d.thin[0].Mkdir("/g"); err != nil {
		d.close()
		return nil, fmt.Errorf("mkdir /g: %w", err)
	}
	for i, tc := range d.thin {
		e.disps = append(e.disps, &gwDispatcher{id: i, tc: tc, pat: pat, tr: tr, ep: tr.endpoint(wire.NodeID(d.thinAddrs[i]))})
	}
	// Preload through the gateway, the dispatchers' thin clients sharing
	// the work.
	errs := make([]error, gwDispatchers)
	var wg sync.WaitGroup
	for i, g := range e.disps {
		wg.Add(1)
		go func(i int, g *gwDispatcher) {
			defer wg.Done()
			for f := i; f < gwReadFiles; f += gwDispatchers {
				if _, err := g.tc.PutFile(gwReadPath(f), pat.window(gwFileOffset(f), gwFileSize), hostReplDeg); err != nil {
					errs[i] = fmt.Errorf("preload %s: %w", gwReadPath(f), err)
					return
				}
			}
			for f := 0; f < gwWriteFiles; f++ {
				if _, err := g.tc.PutFile(gwWritePath(i, f), pat.window(0, gwFileSize), hostReplDeg); err != nil {
					errs[i] = fmt.Errorf("preload %s: %w", gwWritePath(i, f), err)
					return
				}
			}
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return e, nil
}

// openLoop runs one step at rate req/s for dur on every dispatcher.
func (e *gwEnv) openLoop(seed int64, rate int, dur time.Duration, tr *tracer) gwStep {
	scheds := make([][]gwReq, len(e.disps))
	for i := range e.disps {
		scheds[i] = gwSchedule(seed, i, float64(rate)/float64(len(e.disps)), dur)
	}
	parts := make([]*gwStats, len(e.disps))
	var wg sync.WaitGroup
	step := gwStep{from: tr.nowOr0()}
	cpu0, t0 := cpuTime(), time.Now()
	for i, g := range e.disps {
		wg.Add(1)
		go func(i int, g *gwDispatcher) {
			defer wg.Done()
			parts[i] = g.run(scheds[i], t0)
		}(i, g)
	}
	wg.Wait()
	step.wall, step.cpu = time.Since(t0), cpuTime()-cpu0
	step.st, step.wins = mergeGwStats(parts)
	return step
}

// closedLoop issues verified reads back to back on conns thin clients for
// dur and returns reads per second.
func (e *gwEnv) closedLoop(seed int64, conns int, dur time.Duration, rec *recorder) (perS float64, from, until int64) {
	var wg sync.WaitGroup
	var done, failed atomic.Int64
	var firstErr atomic.Pointer[error]
	tr := e.disps[0].tr
	from = tr.nowOr0()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(g *gwDispatcher) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(g.id)))
			zipf := rand.NewZipf(rng, gwZipfS, 1, gwReadFiles-1)
			for time.Now().Before(deadline) {
				f, off := int(zipf.Uint64()), int64(rng.Intn(gwFileSize/gwReadSize))*gwReadSize
				op := g.tr.beginOp(g.ep, "thin_read")
				data, _, _, err := g.tc.Read(gwReadPath(f), off, gwReadSize)
				if err == nil && !bytes.Equal(data, g.pat.window(gwFileOffset(f)+off, gwReadSize)) {
					err = errWrongBytes
				}
				op.end(err != nil)
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				done.Add(1)
			}
		}(e.disps[i])
	}
	wg.Wait()
	var ferr error
	if p := firstErr.Load(); p != nil {
		ferr = *p
	}
	rec.count(done.Load()+failed.Load(), failed.Load(), ferr)
	return float64(done.Load()) / time.Since(t0).Seconds(), from, tr.nowOr0()
}

// verifyWrites reads back the last committed write of every write-set file.
func (e *gwEnv) verifyWrites(rec *recorder) {
	for _, g := range e.disps {
		for f := 0; f < gwWriteFiles; f++ {
			if g.lastSeq[f] == 0 {
				continue
			}
			data, _, _, err := g.tc.Read(gwWritePath(g.id, f), int64(g.lastOff[f]), gwWriteSize)
			if err == nil && !bytes.Equal(data, g.writeData(g.lastSeq[f])) {
				err = errWrongBytes
			}
			if err != nil {
				rec.count(1, 1, fmt.Errorf("read back %s: %w", gwWritePath(g.id, f), err))
			} else {
				rec.count(1, 0, nil)
			}
		}
	}
}

func gatewayHost(cfg runConfig, rec *recorder) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	e, err := setupMedian(rec, func() (*gwEnv, error) { return newGwEnv(cfg.seed, tr) }, (*gwEnv).close)
	if err != nil {
		return err
	}
	defer e.d.closeAfterRun()

	e.openLoop(cfg.seed+1, gatewayRateLow, warmupFor(cfg.seconds), tr)
	if !cfg.trace {
		s := e.openLoop(cfg.seed, gatewayRateLow, secs(cfg.seconds), tr)
		e.verifyWrites(rec)
		st := s.st
		rec.count(st.attempted, st.failed, st.firstErr)
		rec.set("ops_per_s", windowRate(s.wall, s.wins...), st.all.n())
		rec.set("op_p95_ms", windowPct(s.wall, 95, s.wins...), st.all.n())
		rec.set("create_p50_ms", st.create.median(), st.create.n())
		rec.set("commit_p50_ms", st.commit.median(), st.commit.n())
		rec.set("read_p50_ms", st.read.median(), st.read.n())
		rec.set("unlink_p50_ms", st.unlink.median(), st.unlink.n())
		rec.set("write_MB_per_s", float64(st.writeBytes)/1e6/s.wall.Seconds(), st.commit.n()+st.create.n())
		rec.set("read_MB_per_s", float64(st.readBytes)/1e6/s.wall.Seconds(), st.read.n())
		rec.set("cpu_us_per_op", float64(s.cpu.Microseconds())/float64(st.all.n()), st.all.n())
		rec.set("peak_rss_MB", peakRSSMB(), 1)
		return nil
	}

	// Traced run: the three frozen rates, then closed loops for the
	// proxy's ceiling, the tracing overhead and (one serial connection, so
	// every call the proxy issues belongs to the request being served) the
	// proxy's own time.
	tr.on.Store(true)
	var steps []gwStep
	var late sample
	var refused, inflightMax int64
	maxOK := 0
	for _, rate := range []int{gatewayRateLow, gatewayRateMid, gatewayRateHigh} {
		s := e.openLoop(cfg.seed, rate, secs(cfg.seconds/5), tr)
		steps = append(steps, s)
		rec.count(s.st.attempted, s.st.failed, s.st.firstErr)
		late.merge(&s.st.late)
		refused += s.st.refused
		if s.st.all.pct(99) <= gwLatencyLimit && s.st.refused == 0 && s.st.inflightEnd <= gwBacklogLimit && rate > maxOK {
			maxOK = rate
		}
	}
	for _, g := range e.disps {
		if m := g.maxIn.Load(); m > inflightMax {
			inflightMax = m
		}
	}
	tr.on.Store(false)
	untraced, _, _ := e.closedLoop(cfg.seed, gwDispatchers, secs(cfg.seconds/10), rec)
	tr.on.Store(true)
	traced, clFrom, clUntil := e.closedLoop(cfg.seed+1, gwDispatchers, secs(cfg.seconds*3/20), rec)
	_, serFrom, serUntil := e.closedLoop(cfg.seed+2, 1, secs(cfg.seconds*3/20), rec)
	tr.on.Store(false)
	e.verifyWrites(rec)

	spans := tr.drain()
	window := time.Duration(serUntil - steps[0].from)
	a := analyze(tr, spans, e.d.roles(tr), 1000, window)
	total, _, reads := a.opTotals("thin_read")
	reqs := reads
	for _, s := range steps {
		reqs += s.st.all.n()
	}
	a.commonMetrics(rec, float64(reqs))
	a.shares(rec, total, reads)
	a.proxyMetrics(rec, e.d.proxy.ID(), [2]int64{clFrom, clUntil}, [2]int64{serFrom, serUntil})
	low, mid, high := steps[0].st, steps[1].st, steps[2].st
	rec.set("gateway.req_p99_ms.r1000", low.all.pct(99), low.all.n())
	rec.set("gateway.req_p50_ms.r2000", mid.all.median(), mid.all.n())
	rec.set("gateway.req_p99_ms.r2000", mid.all.pct(99), mid.all.n())
	rec.set("gateway.req_p99_ms.r3000", high.all.pct(99), high.all.n())
	rec.set("proxy.max_rate_ok", float64(maxOK), len(steps))
	rec.set("proxy.closed_loop_req_per_s", traced, int(traced*cfg.seconds*3/20))
	rec.set("trace.overhead_frac", 1-traced/untraced, int(traced*cfg.seconds*3/20))
	rec.set("loadgen.lateness_p99_ms", late.pct(99), late.n())
	rec.set("loadgen.inflight_max", float64(inflightMax), 1)
	rec.set("loadgen.refused", float64(refused), late.n())
	runProbes(rec, cfg.seed)
	return rec.writeTrace(tr, spans)
}

// proxyMetrics reports the gateway tier's own numbers. closed is the window
// of the two-connection closed loop (reads only), serial that of the
// one-connection loop.
func (a *analysis) proxyMetrics(rec *recorder, proxyID wire.NodeID, closed, serial [2]int64) {
	node := a.tr.intern(string(proxyID))
	var serveRead, serveCommit, selfRead sample
	backend, reads := 0, 0
	in := func(s span, w [2]int64) bool { return s.Start >= w[0] && s.Start < w[1] }
	for _, s := range a.spans {
		if s.Node != node {
			continue
		}
		switch {
		case s.Kind == kindServe && a.tr.name(s.Name) == "PRead":
			serveRead.add(a.us(s.dur()))
			if in(s, closed) {
				reads++
			}
			if in(s, serial) {
				var kids []interval
				for _, c := range a.children(s, kindCall) {
					kids = append(kids, interval{c.Start, c.End})
				}
				selfRead.add(a.us(selfTime(s.Start, s.End, kids)))
			}
		case s.Kind == kindServe && a.tr.name(s.Name) == "PCommit":
			serveCommit.add(a.us(s.dur()))
		case s.Kind == kindCall && in(s, closed):
			backend++
		}
	}
	rec.set("proxy.serve_us_p50.PRead", serveRead.median(), serveRead.n())
	rec.set("proxy.self_us_p50.PRead", selfRead.median(), selfRead.n())
	rec.set("proxy.serve_us_p50.PCommit", serveCommit.median(), serveCommit.n())
	if reads > 0 {
		rec.set("proxy.backend_rpcs_per_read", float64(backend)/float64(reads), reads)
	}
}
