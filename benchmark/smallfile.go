package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

const smallFileSize = 12 << 10 // the paper's Fig 9/10 small file

// pattern is a block of seeded bytes repeated with a period that no request
// size divides, so data read from a wrong offset does not compare equal.
type pattern struct {
	b      []byte
	period int
}

func newPattern(seed int64, period, maxWindow int) *pattern {
	p := &pattern{b: make([]byte, period+maxWindow), period: period}
	rand.New(rand.NewSource(seed)).Read(p.b[:period])
	for i := period; i < len(p.b); i += period {
		copy(p.b[i:], p.b[:period])
	}
	return p
}

// window is the n bytes a file made of this pattern holds at off.
func (p *pattern) window(off int64, n int) []byte {
	o := int(off % int64(p.period))
	return p.b[o : o+n]
}

// sessionTimes are the wall durations of one small-file session's phases,
// the four columns of the paper's Fig 9.
type sessionTimes struct {
	create, commit, read, unlink time.Duration
}

func (s sessionTimes) total() time.Duration { return s.create + s.commit + s.read + s.unlink }

// runSession is the paper's Fig 9/10 session: create a file, write 12 KiB
// and close it (a two-phase commit), open and read it back, remove it. The
// read is compared with what was written.
func runSession(cl *core.Client, attrs wire.FileAttrs, path string, payload, buf []byte, op opHandle) (st sessionTimes, err error) {
	t0 := time.Now()
	ph := op.phase("create")
	f, err := cl.Create(path, attrs)
	ph.end(err != nil)
	if err != nil {
		return st, fmt.Errorf("create %s: %w", path, err)
	}
	t1 := time.Now()
	st.create = t1.Sub(t0)

	ph = op.phase("commit")
	_, err = f.WriteAt(payload, 0)
	if err == nil {
		err = f.Close()
	}
	ph.end(err != nil)
	if err != nil {
		return st, fmt.Errorf("write+close %s: %w", path, err)
	}
	t2 := time.Now()
	st.commit = t2.Sub(t1)

	ph = op.phase("read")
	err = func() error {
		g, err := cl.Open(path)
		if err != nil {
			return err
		}
		defer g.Close()
		n, err := g.ReadAt(buf[:len(payload)], 0)
		if err != nil && err != io.EOF {
			return err
		}
		if !bytes.Equal(buf[:n], payload) {
			return errWrongBytes
		}
		return nil
	}()
	ph.end(err != nil)
	if err != nil {
		return st, fmt.Errorf("open+read %s: %w", path, err)
	}
	t3 := time.Now()
	st.read = t3.Sub(t2)

	ph = op.phase("unlink")
	err = cl.Remove(path)
	ph.end(err != nil)
	if err != nil {
		return st, fmt.Errorf("remove %s: %w", path, err)
	}
	st.unlink = time.Since(t3)
	return st, nil
}

var errWrongBytes = fmt.Errorf("read returned wrong bytes")

// sessionStats accumulates one client's sessions.
type sessionStats struct {
	create, commit, read, unlink, session sample
	wins                                  []*windows // completions, one per client
	attempted, failed                     int64
	firstErr                              error
}

func (s *sessionStats) record(st sessionTimes, err error, perMs float64) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.create.add(float64(st.create) / perMs)
	s.commit.add(float64(st.commit) / perMs)
	s.read.add(float64(st.read) / perMs)
	s.unlink.add(float64(st.unlink) / perMs)
	total := float64(st.total()) / perMs
	s.session.add(total)
	s.wins[0].observe(total)
}

func (s *sessionStats) merge(o *sessionStats) {
	s.create.merge(&o.create)
	s.commit.merge(&o.commit)
	s.read.merge(&o.read)
	s.unlink.merge(&o.unlink)
	s.session.merge(&o.session)
	s.wins = append(s.wins, o.wins...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// sessionLoop runs sessions on one client from t0 until stop closes. Each
// session's payload is a different window of the client's seeded pattern.
// nsPerMs converts wall nanoseconds to reported milliseconds (1e6 on the
// host; 1e6 × time scale under the model, which reports modeled ms).
func sessionLoop(cl *core.Client, dir string, pat *pattern, attrs wire.FileAttrs, nsPerMs float64, tr *tracer, ep *tracedEndpoint, t0 time.Time, stop <-chan struct{}) *sessionStats {
	st := &sessionStats{wins: []*windows{{t0: t0}}}
	buf := make([]byte, smallFileSize)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return st
		default:
		}
		payload := pat.window(int64(i)*64, smallFileSize)
		op := tr.beginOp(ep, "session")
		times, err := runSession(cl, attrs, fmt.Sprintf("%s/f%07d", dir, i), payload, buf, op)
		op.end(err != nil)
		st.record(times, err, nsPerMs)
	}
}

// smallfileHost is the control-path workload: hostClients closed-loop
// clients (one), each running sessions in its own directory.
func smallfileHost(cfg runConfig, rec *recorder) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	d, err := setupMedian(rec, func() (*hostDeploy, error) { return newHostWithDirs(tr) }, (*hostDeploy).close)
	if err != nil {
		return err
	}
	defer d.closeAfterRun()

	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = hostReplDeg
	pats := make([]*pattern, hostClients)
	for i := range pats {
		pats[i] = newPattern(cfg.seed*1000+int64(i), 1<<20+4099, smallFileSize)
	}
	// run drives every client for dur and returns the pooled statistics.
	run := func(dur time.Duration, gen int) (*sessionStats, time.Duration, time.Duration) {
		stop := make(chan struct{})
		out := make([]*sessionStats, hostClients)
		var wg sync.WaitGroup
		cpu0, t0 := cpuTime(), time.Now()
		for i, cl := range d.clients {
			wg.Add(1)
			go func(i int, cl *core.Client) {
				defer wg.Done()
				dir := fmt.Sprintf("%s/g%d", clientDir(i), gen)
				if err := cl.Mkdir(dir); err != nil {
					out[i] = &sessionStats{attempted: 1, failed: 1, firstErr: err}
					return
				}
				out[i] = sessionLoop(cl, dir, pats[i], attrs, 1e6, tr, tr.endpoint(wire.NodeID(cl.Name())), t0, stop)
			}(i, cl)
		}
		time.Sleep(dur)
		close(stop)
		wg.Wait()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		all := &sessionStats{}
		for _, s := range out {
			all.merge(s)
		}
		return all, wall, cpu
	}

	run(warmupFor(cfg.seconds), 0)
	if !cfg.trace {
		st, wall, cpu := run(secs(cfg.seconds), 1)
		rec.count(st.attempted, st.failed, st.firstErr)
		sessionMetrics(rec, st)
		ok := float64(st.session.n())
		rate := windowRate(wall, st.wins...)
		rec.set("ops_per_s", rate, st.session.n())
		rec.set("op_p95_ms", windowPct(wall, 95, st.wins...), st.session.n())
		rec.set("write_MB_per_s", rate*smallFileSize/1e6, st.session.n())
		rec.set("read_MB_per_s", rate*smallFileSize/1e6, st.session.n())
		rec.set("cpu_us_per_op", float64(cpu.Microseconds())/ok, st.session.n())
		rec.set("peak_rss_MB", peakRSSMB(), 1)
		return nil
	}

	// Traced run: a quarter untraced for the overhead figure, the rest
	// traced; then the probes.
	base, baseWall, _ := run(secs(cfg.seconds/4), 1)
	snap0 := snapshotObs(d.obs)
	tr.on.Store(true)
	st, wall, _ := run(secs(cfg.seconds*3/4), 2)
	tr.on.Store(false)
	snap1 := snapshotObs(d.obs)
	rec.count(base.attempted, base.failed, base.firstErr)
	rec.count(st.attempted, st.failed, st.firstErr)
	spans := tr.drain()
	a := analyze(tr, spans, d.roles(tr), 1000, wall)
	a.sessionMetrics(rec, "session", []string{"create", "commit", "read", "unlink"}, true)
	a.commonMetrics(rec, float64(st.session.n()))
	// A session writes its 12 KiB once and reads them once.
	userBytes := 2 * float64(st.session.n()) * smallFileSize
	rec.set("transport.wire_bytes_per_user_byte", (snap1.wireBytes-snap0.wireBytes)/userBytes, st.session.n())
	rec.set("core.retries_per_kop", (snap1.clientRetries-snap0.clientRetries)/float64(st.session.n())*1000, st.session.n())
	rec.set("trace.overhead_frac", 1-(float64(st.session.n())/wall.Seconds())/(float64(base.session.n())/baseWall.Seconds()), st.session.n())
	runProbes(rec, cfg.seed)
	return rec.writeTrace(tr, spans)
}

// sessionMetrics reports the Fig 9 columns.
func sessionMetrics(rec *recorder, st *sessionStats) {
	rec.set("create_p50_ms", st.create.median(), st.create.n())
	rec.set("commit_p50_ms", st.commit.median(), st.commit.n())
	rec.set("read_p50_ms", st.read.median(), st.read.n())
	rec.set("unlink_p50_ms", st.unlink.median(), st.unlink.n())
}
