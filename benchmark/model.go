package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The model deployment is cluster.New on the simulated fabric with the
// paper's cost model: Fast Ethernet NICs, 10K rpm SCSI disks, 5 ms of
// provider CPU and 770 µs of namespace CPU per request, Sorrento-(8,2).
// Latencies are modeled milliseconds; rates are modeled MB/s times the data
// scale, comparable with the paper's Fig 9 and Fig 11.
const (
	modelProviders = 8
	modelReplDeg   = 2

	// Part A (Fig 9, small files) runs unscaled data at 0.1 wall seconds per
	// modeled second: a session is ~100 modeled ms, 10 ms of wall time,
	// against which the host's own ~0.2 ms per session is under 3 %.
	modelSmallTimeScale = 0.1
	// Part B (Fig 11, bulk) divides every byte quantity and bandwidth by 512
	// and runs at 0.01: a 4 MB/512 request is 0.33 modeled s on the NIC,
	// 3.3 ms of wall time.
	modelBulkTimeScale = 0.01
	modelBulkDataScale = 512
	modelBulkClients   = 2
	modelPaperFileSize = 512 << 20 // 1 MiB after scaling; providers cache 512 MiB/512 = 1 MiB each
	modelPaperReqSize  = 4 << 20   // 8 KiB after scaling
)

// modelCluster is one simulated deployment with its load-generating clients,
// which join through the tracer's decorator when there is one.
type modelCluster struct {
	c       *cluster.Cluster
	obs     *obs.Obs
	clients []*core.Client
	scale   float64
}

func (m *modelCluster) close() {
	for _, cl := range m.clients {
		cl.Close()
	}
	m.c.Stop()
}

// newModelCluster builds Sorrento-(8,2) at the given time scale with every
// byte quantity and bandwidth divided by dataScale, and attaches nclients
// clients named prefix+index.
func newModelCluster(timeScale float64, dataScale int64, nclients int, prefix string, tr *tracer) (*modelCluster, error) {
	m := &modelCluster{scale: timeScale}
	if tr != nil {
		m.obs = &obs.Obs{Registry: obs.NewRegistry()}
	}
	net := simnet.FastEthernet()
	net.Bandwidth /= float64(dataScale)
	dm := disk.SCSI10K()
	dm.TransferRate /= float64(dataScale)
	if dm.SequentialThreshold /= dataScale; dm.SequentialThreshold < 1 {
		dm.SequentialThreshold = 1
	}
	sizing := layout.ScaledSizing(dataScale)
	// Heartbeats every 100 ms of wall time: at the default (one modeled
	// second) the failure window would be 50 ms of wall time at the bulk
	// scale, inside one burst of hypervisor steal.
	heartbeat := time.Duration(float64(100*time.Millisecond) / timeScale)
	c, err := cluster.New(cluster.Options{
		Providers:    modelProviders,
		Scale:        timeScale,
		Net:          net,
		DiskModel:    dm,
		DiskCapacity: (512 << 30) / dataScale,
		Sizing:       sizing,
		Heartbeat:    heartbeat,
		Obs:          m.obs,
	})
	if err != nil {
		return nil, err
	}
	m.c = c
	for _, p := range c.Providers() {
		p.Store().SetCacheBytes(segstore.DefaultCacheBytes / dataScale)
	}
	var network transport.Network = c.Fabric
	if tr != nil {
		network = tr.network(network)
	}
	ccfg := core.Config{
		Namespace:  cluster.NamespaceNode,
		Sizing:     sizing,
		Membership: membership.Config{HeartbeatInterval: heartbeat},
		Obs:        m.obs,
	}
	// As cluster.NewClient does: a shadow lease shorter than a few wall
	// seconds would expire from scheduling noise, not for modeled reasons.
	if floor := c.Clock.Modeled(5 * time.Second); floor > 5*time.Minute {
		ccfg.ShadowTTL = floor
	}
	for i := 0; i < nclients; i++ {
		cl, err := core.NewClient(fmt.Sprintf("%s%d", prefix, i), c.Clock, network, ccfg)
		if err != nil {
			m.close()
			return nil, err
		}
		m.clients = append(m.clients, cl)
	}
	stabilize := 5 * time.Minute
	if floor := c.Clock.Modeled(10 * time.Second); floor > stabilize {
		stabilize = floor
	}
	if err := c.AwaitStable(modelProviders, stabilize); err != nil {
		m.close()
		return nil, err
	}
	for i, cl := range m.clients {
		if err := cl.WaitForProviders(modelProviders, stabilize); err != nil {
			m.close()
			return nil, err
		}
		if err := cl.Mkdir(clientDir(i)); err != nil {
			m.close()
			return nil, fmt.Errorf("mkdir %s: %w", clientDir(i), err)
		}
	}
	return m, nil
}

// modelEnv is both parts' deployments; they come up side by side.
type modelEnv struct{ small, bulk *modelCluster }

func (e *modelEnv) close() {
	e.small.close()
	e.bulk.close()
}

func newModelEnv(tr *tracer) (*modelEnv, error) {
	type res struct {
		m   *modelCluster
		err error
	}
	bulkCh := make(chan res, 1)
	go func() {
		m, err := newModelCluster(modelBulkTimeScale, modelBulkDataScale, modelBulkClients, "mb", tr)
		bulkCh <- res{m, err}
	}()
	small, err := newModelCluster(modelSmallTimeScale, 1, 1, "ms", tr)
	b := <-bulkCh
	if err != nil || b.err != nil {
		if small != nil {
			small.close()
		}
		if b.m != nil {
			b.m.close()
		}
		if err == nil {
			err = b.err
		}
		return nil, err
	}
	return &modelEnv{small: small, bulk: b.m}, nil
}

// paperModel is the paper-fidelity workload. Part A: one client, sequential
// small-file sessions (Fig 9). Part B: two clients stream whole files, then
// read them back at random offsets (Fig 11).
func paperModel(cfg runConfig, rec *recorder) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	e, err := setupMedian(rec, func() (*modelEnv, error) { return newModelEnv(tr) }, (*modelEnv).close)
	if err != nil {
		return err
	}
	defer e.close()

	// Part A.
	small := e.small
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = modelReplDeg
	pat := newPattern(cfg.seed*1000+7, 1<<20+4099, smallFileSize)
	ep := tr.endpoint(wire.NodeID(small.clients[0].Name()))
	gen := 0
	sessions := func(dur time.Duration) (*sessionStats, time.Duration, time.Duration) {
		gen++
		dir := fmt.Sprintf("%s/g%d", clientDir(0), gen)
		if err := small.clients[0].Mkdir(dir); err != nil {
			return &sessionStats{attempted: 1, failed: 1, firstErr: err}, dur, 0
		}
		stop := make(chan struct{})
		timer := time.AfterFunc(dur, func() { close(stop) })
		defer timer.Stop()
		cpu0, t0 := cpuTime(), time.Now()
		st := sessionLoop(small.clients[0], dir, pat, attrs, 1e6*small.scale, tr, ep, t0, stop)
		return st, time.Since(t0), cpuTime() - cpu0
	}
	// Part B.
	bulk := e.bulk
	fileSize, reqSize := int64(modelPaperFileSize/modelBulkDataScale), int64(modelPaperReqSize/modelBulkDataScale)
	clients := make([]*bulkClient, len(bulk.clients))
	for i, cl := range bulk.clients {
		clients[i] = &bulkClient{cl: cl, dir: clientDir(i), attrs: attrs, fileSize: fileSize, reqSize: reqSize, keepAll: true,
			tr: tr, ep: tr.endpoint(wire.NodeID(cl.Name())),
			pat: newPattern(cfg.seed*1000+20+int64(i), int(reqSize)+4099, int(reqSize)),
			rng: rand.New(rand.NewSource(cfg.seed*1000 + 40 + int64(i)))}
	}
	// paperMBs turns requests per wall second into paper-comparable MB/s:
	// modeled seconds are wall seconds over the time scale, bytes are scaled
	// bytes times the data scale.
	paperMBs := func(reqPerWallS float64) float64 {
		return reqPerWallS * bulk.scale * float64(reqSize) * modelBulkDataScale / 1e6
	}

	// quiesce lets the lazy replication of the files just written drain, as
	// the paper's Fig 11 runs do between rounds: a read phase that starts on
	// top of the backlog spends its first modeled minutes queueing behind it
	// (reads/s then varied 3x from run to run).
	quiesce := func() error { return bulk.c.AwaitQuiesce(30 * time.Minute) }

	if !cfg.trace {
		// Part B first. It writes a fixed number of files — at the seed commit
		// what two clients write in a quarter of the time — so that the read
		// phase's working set and the heap are the same from run to run, and
		// it leaves the heap at its full size for part A, whose collections
		// then take it to its goal several times: a heap that is still growing
		// when the run ends has its peak wherever the last collection cycle
		// happened to stand (peak_rss_MB spread by 24 % that way).
		nfiles := int(cfg.seconds*0.3 + 0.5)
		if nfiles < 2 {
			nfiles = 2
		}
		w := writeFiles(clients, nfiles)
		if err := quiesce(); err != nil {
			return err
		}
		// The first reads find cold caches and location tables: the rate
		// climbs for one to three seconds before it is level.
		readPhase(clients, warmupFor(cfg.seconds))
		r := readPhase(clients, secs(cfg.seconds*0.35))
		sessions(warmupFor(cfg.seconds))
		st, wallA, cpuA := sessions(secs(cfg.seconds * 0.4))
		rec.count(st.attempted, st.failed, st.firstErr)
		rec.count(w.st.attempted, w.st.failed, w.st.firstErr)
		rec.count(r.st.attempted, r.st.failed, r.st.firstErr)
		sessionMetrics(rec, st)
		// Sessions and bulk writes are counted over the whole phase, not by
		// the median window: a window holds seventy sessions, so its count
		// moves in steps of 1.4 %, and the write phase alternates between
		// bursts and replication backlog, so that the same work in the same
		// time had median windows 25 % apart.
		rec.set("ops_per_s", float64(st.session.n())/wallA.Seconds()*small.scale, st.session.n())
		rec.set("op_p95_ms", st.session.pct(95), st.session.n())
		rec.set("write_MB_per_s", paperMBs(float64(w.st.write.n())/w.wall.Seconds()), w.st.write.n())
		rec.set("read_MB_per_s", paperMBs(r.reqPerS()), r.st.read.n())
		ops := st.session.n() + w.ops() + r.ops()
		rec.set("cpu_us_per_op", float64((cpuA+w.cpu+r.cpu).Microseconds())/float64(ops), ops)
		rec.set("peak_rss_MB", peakRSSMB(), 1)
		return nil
	}

	sessions(warmupFor(cfg.seconds))
	base, baseWall, _ := sessions(secs(cfg.seconds / 8))
	snapA0 := snapshotObs(small.obs)
	tr.on.Store(true)
	st, wallA, cpuA := sessions(secs(cfg.seconds * 3 / 8))
	tr.on.Store(false)
	snapA1 := snapshotObs(small.obs)
	spansA := tr.drain()
	tr.on.Store(true)
	w := writePhase(clients, secs(cfg.seconds/4))
	tr.on.Store(false)
	if err := quiesce(); err != nil {
		return err
	}
	tr.on.Store(true)
	snapB0 := snapshotObs(bulk.obs)
	r := readPhase(clients, secs(cfg.seconds/4))
	snapB1 := snapshotObs(bulk.obs)
	tr.on.Store(false)
	spansB := tr.drain()
	rec.count(base.attempted, base.failed, base.firstErr)
	rec.count(st.attempted, st.failed, st.firstErr)
	rec.count(w.st.attempted, w.st.failed, w.st.firstErr)
	rec.count(r.st.attempted, r.st.failed, r.st.firstErr)

	// Part A: the client side of the session, in modeled µs, and the
	// modeled budget behind it.
	n := st.session.n()
	// Only the client is decorated under the model (cluster.New joins its
	// nodes itself), so there is no serve time to split the session by.
	a := analyze(tr, spansA, map[uint16]role{tr.intern(string(cluster.NamespaceNode)): roleNamespace}, 1000*small.scale, wallA)
	a.sessionMetrics(rec, "session", []string{"create", "commit", "read", "unlink"}, false)
	a.commonMetrics(rec, float64(n))
	perSession := func(busySeconds float64) float64 { return busySeconds * 1000 / float64(n) }
	// Provider nodes are p00..p07 (cluster.ProviderID).
	nic := perSession(snapA1.busyDelta(snapA0, "", "/nic-send"))
	dsk := perSession(snapA1.busyDelta(snapA0, "p", "/disk"))
	pcpu := perSession(snapA1.busyDelta(snapA0, "p", "/cpu"))
	ncpu := perSession(snapA1.busyDelta(snapA0, "namespace", "/cpu"))
	mean := st.session.mean()
	rec.set("simnet.nic_busy_ms_per_session", nic, n)
	rec.set("disk.busy_ms_per_session", dsk, n)
	rec.set("simtime.provider_cpu_busy_ms_per_session", pcpu, n)
	rec.set("simtime.namespace_cpu_busy_ms_per_session", ncpu, n)
	// The session's blocking path: the three busy terms it waits for, the
	// wire latency of its RPCs and the client's own time. Disk time is not on
	// it — small files are written back asynchronously and read from the
	// provider's cache — and is reported beside it. What is left over is
	// queueing behind background replication and the host's own time.
	wireMs := rec.metrics["core.rpcs_per_session"].Value * 2 * simnet.FastEthernet().Latency.Seconds() * 1000
	var selfMs float64
	for _, ph := range []string{"create", "commit", "read", "unlink"} {
		selfMs += rec.metrics["core."+ph+".self_us"].Value / 1000
	}
	path := nic + pcpu + ncpu + wireMs + selfMs
	rec.set("simtime.unaccounted_ms_per_session", mean-path, n)
	rec.set("trace.session_reconstruct_frac", path/mean, n)
	rec.set("core.retries_per_kop", (snapA1.clientRetries-snapA0.clientRetries)/float64(n)*1000, n)
	rec.set("trace.overhead_frac", 1-(float64(n)/wallA.Seconds())/(float64(base.session.n())/baseWall.Seconds()), n)

	// Part B: which modeled resource bounds the bulk read.
	providerSeconds := modelProviders * r.wall.Seconds() / bulk.scale
	rec.set("simnet.nic_busy_share.bulk_read", snapB1.busyDelta(snapB0, "p", "/nic-send")/providerSeconds, r.st.read.n())
	rec.set("disk.busy_share.bulk_read", snapB1.busyDelta(snapB0, "p", "/disk")/providerSeconds, r.st.read.n())
	b := analyze(tr, spansB, nil, 1000*bulk.scale, w.wall+r.wall)
	b.bulkMetrics(rec)
	modeled := wallA.Seconds()/small.scale + (w.wall+r.wall).Seconds()/bulk.scale
	rec.set("simtime.cpu_s_per_modeled_s", (cpuA+w.cpu+r.cpu).Seconds()/modeled, n)
	rec.set("simtime.time_scale", small.scale, 1)
	runProbes(rec, cfg.seed)
	return rec.writeTrace(tr, append(spansA, spansB...))
}
