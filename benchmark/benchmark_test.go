package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestUnionAndSelfTime(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {45, 46}, {-5, 2}, {95, 200}}
	got := unionOf(ivs, 0, 100)
	want := []interval{{0, 2}, {10, 30}, {40, 50}, {95, 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unionOf = %v, want %v", got, want)
	}
	if n := totalLen(got); n != 2+20+10+5 {
		t.Fatalf("totalLen = %d", n)
	}
	// A span's self time is its duration minus what its children cover;
	// overlapping children are not counted twice.
	if s := selfTime(0, 100, ivs); s != 100-37 {
		t.Fatalf("selfTime = %d, want 63", s)
	}
	if s := selfTime(0, 100, nil); s != 100 {
		t.Fatalf("selfTime without children = %d", s)
	}
	sub := subtract([]interval{{0, 10}, {20, 30}}, []interval{{5, 22}, {25, 26}})
	if want := []interval{{0, 5}, {22, 25}, {26, 30}}; !reflect.DeepEqual(sub, want) {
		t.Fatalf("subtract = %v, want %v", sub, want)
	}
}

func TestBreakdownSumsToDuration(t *testing.T) {
	tr := newTracer()
	ns, prov, cl := tr.intern("ns"), tr.intern("p0"), tr.intern("c0")
	typ := tr.intern("NSLookup")
	spans := []span{
		{ID: 10, Op: 10, Start: 0, End: 1000, Kind: kindOp, Name: tr.intern("read"), Node: cl},
		// two overlapping calls (one round), then a third (second round)
		{ID: 11, Parent: 10, Op: 10, Start: 100, End: 400, Kind: kindCall, Name: typ, Node: cl, Peer: ns},
		{ID: 12, Parent: 11, Op: 10, Start: 200, End: 300, Kind: kindServe, Name: typ, Node: ns, Peer: cl},
		{ID: 13, Parent: 10, Op: 10, Start: 150, End: 500, Kind: kindCall, Name: typ, Node: cl, Peer: prov},
		{ID: 14, Parent: 13, Op: 10, Start: 250, End: 450, Kind: kindServe, Name: typ, Node: prov, Peer: cl},
		{ID: 15, Parent: 10, Op: 10, Start: 700, End: 900, Kind: kindCall, Name: typ, Node: cl, Peer: prov},
	}
	a := analyze(tr, spans, map[uint16]role{ns: roleNamespace, prov: roleProvider}, 1000, time.Second)
	b := a.breakdown(spans[0])
	if b.calls != 3 || b.rounds != 2 || b.nsOps != 1 {
		t.Fatalf("calls=%d rounds=%d nsOps=%d, want 3 2 1", b.calls, b.rounds, b.nsOps)
	}
	if b.self != 1000-400-200 {
		t.Fatalf("self = %d, want 400", b.self)
	}
	// namespace serves 200..300; the provider's 250..450 counts where the
	// namespace is not already serving.
	if b.namespace != 100 || b.provider != 150 {
		t.Fatalf("namespace=%d provider=%d, want 100 150", b.namespace, b.provider)
	}
	if sum := b.self + b.transport + b.namespace + b.provider + b.proxy; sum != b.dur {
		t.Fatalf("parts sum to %d, span lasts %d", sum, b.dur)
	}
	if b.callDur != 300+350+200 {
		t.Fatalf("callDur = %d", b.callDur)
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	if s.n() != 100 {
		t.Fatalf("n = %d", s.n())
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		if got := s.pct(c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	var empty sample
	if empty.median() != 0 || empty.mean() != 0 {
		t.Error("empty sample must read 0")
	}

	// The recorder keeps the sample count beside the value, in the unit the
	// metric table gives.
	rec := newRecorder(runConfig{})
	rec.set("ops_per_s", 12.5, 40)
	if m := rec.metrics["ops_per_s"]; m.Value != 12.5 || m.N != 40 || m.Unit != "1/s" {
		t.Fatalf("recorded %+v", m)
	}
}

func TestWindowsIgnoreABadWindow(t *testing.T) {
	// Two clients, five whole windows and a partial one; the third window
	// met a stall.
	a := &windows{lat: [][]float64{{1, 2}, {1, 2}, {40}, {1, 2}, {1, 2}, {90}}}
	b := &windows{lat: [][]float64{{3}, {3}, nil, {3}, {3}}}
	elapsed := 5*rateWindow + rateWindow/2
	if got, want := windowRate(elapsed, a, b), 3/rateWindow.Seconds(); got != want {
		t.Fatalf("windowRate = %v, want %v", got, want)
	}
	if got := windowPct(elapsed, 100, a, b); got != 3 {
		t.Fatalf("windowPct = %v, want 3", got)
	}
	// No whole window: the plain rate, and the percentile of everything.
	if got, want := windowRate(rateWindow/2, a, b), 14/(rateWindow/2).Seconds(); got != want {
		t.Fatalf("windowRate with no whole window = %v, want %v", got, want)
	}
	if got := windowPct(rateWindow/2, 100, a, b); got != 90 {
		t.Fatalf("windowPct with no whole window = %v, want 90", got)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := enc(gwSchedule(7, 0, 1000, 2*time.Second))
	if b := enc(gwSchedule(7, 0, 1000, 2*time.Second)); !bytes.Equal(a, b) {
		t.Fatal("same seed gave a different schedule")
	}
	if b := enc(gwSchedule(8, 0, 1000, 2*time.Second)); bytes.Equal(a, b) {
		t.Fatal("different seeds gave the same schedule")
	}
	if b := enc(gwSchedule(7, 1, 1000, 2*time.Second)); bytes.Equal(a, b) {
		t.Fatal("the two dispatchers share a schedule")
	}
	sched := gwSchedule(7, 0, 1000, 2*time.Second)
	if n := len(sched); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 2 s at 1000/s", n)
	}
	kinds := map[gwKind]int{}
	for i, rq := range sched {
		kinds[rq.Kind]++
		if i > 0 && rq.Due < sched[i-1].Due {
			t.Fatal("schedule not in due order")
		}
	}
	if kinds[gwRead] < len(sched)*85/100 || kinds[gwWrite] == 0 || kinds[gwChurn] == 0 {
		t.Fatalf("mix %v", kinds)
	}

	p1, p2, p3 := newPattern(7, 4099, 1024), newPattern(7, 4099, 1024), newPattern(8, 4099, 1024)
	if !bytes.Equal(p1.b, p2.b) || bytes.Equal(p1.b, p3.b) {
		t.Fatal("pattern does not follow the seed")
	}
	// The file is the pattern repeated: a window that wraps equals the
	// pattern's start.
	if !bytes.Equal(p1.window(4099+5, 100), p1.window(5, 100)) || bytes.Equal(p1.window(0, 100), p1.window(1, 100)) {
		t.Fatal("pattern windows are not position-dependent")
	}
}

// fakeEndpoint records what reaches the endpoint under the decorator.
type fakeEndpoint struct {
	id, host   wire.NodeID
	multicasts []any
	closed     int
	gotCtx     obs.SpanContext
}

func (f *fakeEndpoint) ID() wire.NodeID   { return f.id }
func (f *fakeEndpoint) Host() wire.NodeID { return f.host }
func (f *fakeEndpoint) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	f.gotCtx, _ = obs.FromContext(ctx)
	return wire.GenericResp{OK: true}, nil
}
func (f *fakeEndpoint) Multicast(msg any) { f.multicasts = append(f.multicasts, msg) }
func (f *fakeEndpoint) Close() error      { f.closed++; return nil }

type fakeNetwork struct {
	ep      *fakeEndpoint
	handler transport.Handler
	atHost  wire.NodeID
}

func (n *fakeNetwork) Join(id wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	n.handler = h
	return n.ep, nil
}
func (n *fakeNetwork) JoinAt(id, host wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	n.handler, n.atHost = h, host
	return n.ep, nil
}

func TestDecoratorForwardsAndRecords(t *testing.T) {
	tr := newTracer()
	inner := &fakeNetwork{ep: &fakeEndpoint{id: "n1", host: "h1"}}
	var served []any
	var casts []any
	h := handlerFuncs{
		call: func(ctx context.Context, from wire.NodeID, req any) (any, error) {
			served = append(served, req)
			return wire.GenericResp{OK: true}, nil
		},
		cast: func(from wire.NodeID, msg any) { casts = append(casts, msg) },
	}
	ep, err := tr.network(inner).JoinAt("n1", "h1", h)
	if err != nil {
		t.Fatal(err)
	}
	if inner.atHost != "h1" {
		t.Fatal("JoinAt did not pass the host on")
	}
	if ep.ID() != "n1" || ep.Host() != "h1" {
		t.Fatalf("ID/Host = %s/%s", ep.ID(), ep.Host())
	}
	ep.Multicast(wire.Hello{From: "n1"})
	if len(inner.ep.multicasts) != 1 || inner.ep.multicasts[0] != (wire.Hello{From: "n1"}) {
		t.Fatalf("Multicast forwarded %v", inner.ep.multicasts)
	}

	// Off: calls and serves pass through and leave no span.
	if _, err := ep.Call(context.Background(), "n2", wire.NSLookup{Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.handler.HandleCall(context.Background(), "n2", wire.NSLookup{Path: "/y"}); err != nil {
		t.Fatal(err)
	}
	inner.handler.HandleCast("n2", wire.Hello{From: "n2"})
	if len(served) != 1 || len(casts) != 1 || len(tr.drain()) != 0 || inner.ep.gotCtx.Valid() {
		t.Fatalf("off: served=%d casts=%d ctx=%+v", len(served), len(casts), inner.ep.gotCtx)
	}

	// On: the call is a child of the endpoint's current operation, and the
	// span context travels in ctx for the callee's decorator to parent on.
	tr.on.Store(true)
	te := tr.endpoint("n1")
	op := tr.beginOp(te, "session")
	ph := op.phase("read")
	if _, err := ep.Call(context.Background(), "n2", wire.NSLookup{Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	sc := inner.ep.gotCtx
	if !sc.Valid() {
		t.Fatal("no span context on the wire")
	}
	ph.end(false)
	op.end(false)
	if _, err := inner.handler.HandleCall(obs.ContextWith(context.Background(), sc), "n2", wire.NSLookup{Path: "/z"}); err != nil {
		t.Fatal(err)
	}
	inner.handler.HandleCast("n2", wire.Hello{From: "n2"})
	spans := tr.drain()
	byKind := map[spanKind][]span{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	if len(byKind[kindOp]) != 2 || len(byKind[kindCall]) != 1 || len(byKind[kindServe]) != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	call, serve := byKind[kindCall][0], byKind[kindServe][0]
	var phase span
	for _, s := range byKind[kindOp] {
		if s.Parent != 0 {
			phase = s
		}
	}
	if call.Parent != phase.ID || call.Op != phase.Op || sc.SpanID != call.ID || sc.TraceID != call.Op {
		t.Fatalf("call %+v not under phase %+v (ctx %+v)", call, phase, sc)
	}
	if serve.Parent != call.ID || serve.Op != call.Op {
		t.Fatalf("serve %+v not under call %+v", serve, call)
	}
	if tr.name(call.Name) != "NSLookup" || tr.name(call.Peer) != "n2" || tr.name(serve.Node) != "n1" {
		t.Fatalf("names: %s %s %s", tr.name(call.Name), tr.name(call.Peer), tr.name(serve.Node))
	}
	if got := tr.casts.Load(); got != 1 {
		t.Fatalf("casts counted = %d, want 1 (only while on)", got)
	}
	if len(served) != 2 || len(casts) != 2 {
		t.Fatalf("handler saw %d calls, %d casts", len(served), len(casts))
	}

	if err := ep.Close(); err != nil || inner.ep.closed != 1 {
		t.Fatalf("Close: err=%v closed=%d", err, inner.ep.closed)
	}
}

type handlerFuncs struct {
	call func(context.Context, wire.NodeID, any) (any, error)
	cast func(wire.NodeID, any)
}

func (h handlerFuncs) HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error) {
	return h.call(ctx, from, req)
}
func (h handlerFuncs) HandleCast(from wire.NodeID, msg any) { h.cast(from, msg) }

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b, sa, sb, bound float64
		better, want        string
	}{
		{100, 105, 0, 0, 0.10, "lower", "same"},
		{100, 115, 0, 0, 0.10, "lower", "worse"},
		{100, 85, 0, 0, 0.10, "lower", "better"},
		{100, 85, 0, 0, 0.10, "higher", "worse"},
		{100, 115, 0, 0, 0.10, "higher", "better"},
		{100, 150, 0.2, 0, 0.10, "lower", "unresolved"},
		{100, 150, 0, 0, 0, "lower", "-"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.sa, c.sb, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c, got, c.want)
		}
	}
	if s := spread([]float64{10, 10, 10}); s != 0 {
		t.Errorf("spread of three values = %v, cannot be told", s)
	}
	if s := spread([]float64{8, 9, 10, 11, 12}); s < 0.19 || s > 0.21 {
		t.Errorf("spread = %v, want 0.2", s)
	}
}

// TestContractMatchesTables keeps BENCHMARK.json, which the driver reads,
// and the tables the program reports from the same: the file is what
// -contract prints.
func TestContractMatchesTables(t *testing.T) {
	want, err := contract()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no contract beside the benchmark: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is not what `benchmark -contract` prints; regenerate it")
	}
	for _, w := range workloads {
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric definition %+v", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(want) > 64<<10 {
		t.Errorf("%d per-layer and %d end-to-end metrics, %d bytes: beyond the contract's limits", len(perLayer), len(endToEnd), len(want))
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that nothing failed and that every metric of the table is there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up real deployments")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, run, trace := w.name, w.run, trace
			label := name + "/e2e"
			if trace {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				cfg := runConfig{workload: name, seed: 3, seconds: 1, trace: trace, outDir: t.TempDir()}
				rec := newRecorder(cfg)
				if err := run(cfg, rec); err != nil {
					t.Fatal(err)
				}
				if rec.failed != 0 || rec.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", rec.failed, rec.attempted, rec.firstErr)
				}
				var missing []string
				for _, d := range rec.defs {
					m, ok := rec.metrics[d.Name]
					if !trace && (!ok || m.Value <= 0) {
						missing = append(missing, d.Name)
					}
				}
				if len(missing) > 0 {
					t.Fatalf("end-to-end metrics missing or zero: %v", missing)
				}
				if trace {
					for _, must := range smokeMustHave[name] {
						if rec.metrics[must].Value == 0 {
							t.Errorf("per-layer metric %s is 0", must)
						}
					}
				}
				if err := rec.finish(time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// smokeMustHave names, per workload, per-layer metrics that workload is
// there to produce.
var smokeMustHave = map[string][]string{
	"smallfile-host": {"core.commit.self_us", "core.rpcs_per_session", "rpc.NSCreate.per_op", "rpc.Commit2PC.serve_us_p50",
		"transport.overhead_us_p50", "namespace.ops_per_session", "trace.session_reconstruct_frac", "segstore.read_us.12KiB", "wire.roundtrip_ns.small"},
	"bulk-host": {"core.bulk_write.self_us_per_MiB", "core.inflight_mean.bulk_read", "rpc.SegRead.per_op", "rpc.SegWrite.call_us_p50",
		"transport.overhead_us_per_MiB", "provider.stored_bytes_per_user_byte", "transport.wire_bytes_per_user_byte"},
	"gateway-host": {"proxy.serve_us_p50.PRead", "proxy.self_us_p50.PRead", "proxy.backend_rpcs_per_read", "proxy.closed_loop_req_per_s",
		"rpc.PRead.per_op", "rpc.PCommit.serve_us_p50", "gateway.req_p99_ms.r3000", "loadgen.lateness_p99_ms"},
	"paper-model": {"core.commit.self_us", "core.rpcs_per_session", "rpc.NSCreate.call_us_p50", "simnet.nic_busy_ms_per_session",
		"simtime.provider_cpu_busy_ms_per_session", "simtime.namespace_cpu_busy_ms_per_session", "simtime.cpu_s_per_modeled_s"},
}
