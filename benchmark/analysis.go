package main

import (
	"time"
)

// role is what a node is in the deployment; the analysis attributes serve
// time to a layer by the role of the node that served.
type role uint8

const (
	roleOther role = iota
	roleNamespace
	roleProvider
	roleProxy
)

// analysis turns a traced window's spans into per-layer metrics.
type analysis struct {
	tr      *tracer
	spans   []span
	roles   map[uint16]role
	kids    map[uint64][]int32 // span ID -> indices of the spans it caused
	nsPerUs float64            // wall ns per reported µs: 1000 on the host, 1000 × time scale under the model
	window  time.Duration      // how long tracing was on
	casts   int64
}

func analyze(tr *tracer, spans []span, roles map[uint16]role, nsPerUs float64, window time.Duration) *analysis {
	a := &analysis{tr: tr, spans: spans, roles: roles, nsPerUs: nsPerUs, window: window,
		kids: make(map[uint64][]int32, len(spans)), casts: tr.casts.Swap(0)}
	for i, s := range spans {
		if s.Parent != 0 {
			a.kids[s.Parent] = append(a.kids[s.Parent], int32(i))
		}
	}
	return a
}

func (a *analysis) us(ns int64) float64 { return float64(ns) / a.nsPerUs }

// children returns the spans of kind k that s caused.
func (a *analysis) children(s span, k spanKind) []span {
	var out []span
	for _, i := range a.kids[s.ID] {
		if c := a.spans[i]; c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// serveOf returns the serve span a call caused on its callee, if it was
// recorded (under the model only clients are decorated).
func (a *analysis) serveOf(call span) (span, bool) {
	for _, i := range a.kids[call.ID] {
		if c := a.spans[i]; c.Kind == kindServe {
			return c, true
		}
	}
	return span{}, false
}

// breakdown splits one operation span's wall time among the layers on its
// blocking path. At any instant the operation is either outside every call
// (the client library's own time), inside a call whose handler is running
// (namespace, provider or proxy serve time), or inside a call but outside
// its handler (transport: framing, codec, sockets, scheduling). The parts
// sum to the span's duration exactly.
type breakdown struct {
	dur, self, transport, namespace, provider, proxy int64
	calls, rounds, nsOps                             int
	callDur                                          int64 // sum of call durations, overlaps counted twice
}

func (b *breakdown) add(o breakdown) {
	b.dur += o.dur
	b.self += o.self
	b.transport += o.transport
	b.namespace += o.namespace
	b.provider += o.provider
	b.proxy += o.proxy
	b.calls += o.calls
	b.rounds += o.rounds
	b.nsOps += o.nsOps
	b.callDur += o.callDur
}

func (a *analysis) breakdown(op span) breakdown {
	b := breakdown{dur: op.dur()}
	var calls, nsIv, provIv, proxyIv []interval
	for _, c := range a.children(op, kindCall) {
		b.calls++
		b.callDur += c.dur()
		calls = append(calls, interval{c.Start, c.End})
		if a.roles[c.Peer] == roleNamespace {
			b.nsOps++
		}
		if sv, ok := a.serveOf(c); ok {
			iv := interval{sv.Start, sv.End}
			switch a.roles[sv.Node] {
			case roleNamespace:
				nsIv = append(nsIv, iv)
			case roleProvider:
				provIv = append(provIv, iv)
			case roleProxy:
				proxyIv = append(proxyIv, iv)
			}
		}
	}
	callsU := unionOf(calls, op.Start, op.End)
	// Calls that overlap form one round: the operation waits for the
	// slowest of them, so rounds is the depth of its critical path.
	b.rounds = len(callsU)
	inCalls := totalLen(callsU)
	b.self = b.dur - inCalls
	nsU := unionOf(nsIv, op.Start, op.End)
	provU := subtract(unionOf(provIv, op.Start, op.End), nsU)
	proxyU := subtract(subtract(unionOf(proxyIv, op.Start, op.End), nsU), provU)
	b.namespace, b.provider, b.proxy = totalLen(nsU), totalLen(provU), totalLen(proxyU)
	b.transport = inCalls - b.namespace - b.provider - b.proxy
	return b
}

// rootOps returns the successful root operation spans with the given name.
func (a *analysis) rootOps(name string) []span {
	idx, ok := a.tr.index.Load(name)
	if !ok {
		return nil
	}
	var out []span
	for _, s := range a.spans {
		if s.Kind == kindOp && s.Parent == 0 && s.Name == idx.(uint16) && !s.Err {
			out = append(out, s)
		}
	}
	return out
}

// sessionMetrics reports the client library's own time per phase of the
// small-file session and the RPCs it issues and, when the servers were
// decorated too (served), the transport, namespace and provider shares and
// how well the parts reconstruct the session's median.
func (a *analysis) sessionMetrics(rec *recorder, root string, phases []string, served bool) {
	sessions := a.rootOps(root)
	if len(sessions) == 0 {
		return
	}
	phaseSelf := make(map[string]*sample, len(phases))
	for _, p := range phases {
		phaseSelf[p] = &sample{}
	}
	var total breakdown
	var durS, selfS, transS, nsS, provS sample
	var rpcs, rounds, nsOps sample
	for _, s := range sessions {
		var b breakdown
		for _, ph := range a.children(s, kindOp) {
			pb := a.breakdown(ph)
			if smp := phaseSelf[a.tr.name(ph.Name)]; smp != nil {
				smp.add(a.us(pb.self))
			}
			b.add(pb)
		}
		// Time between phases belongs to the load generator, not the system.
		total.add(b)
		durS.add(a.us(b.dur))
		selfS.add(a.us(b.self))
		transS.add(a.us(b.transport))
		nsS.add(a.us(b.namespace))
		provS.add(a.us(b.provider))
		rpcs.add(float64(b.calls))
		rounds.add(float64(b.rounds))
		nsOps.add(float64(b.nsOps))
	}
	n := len(sessions)
	for _, p := range phases {
		rec.set("core."+p+".self_us", phaseSelf[p].median(), phaseSelf[p].n())
	}
	rec.set("core.rpcs_per_session", rpcs.mean(), n)
	rec.set("core.rpc_rounds_per_session", rounds.mean(), n)
	rec.set("namespace.ops_per_session", nsOps.mean(), n)
	if !served {
		return
	}
	a.shares(rec, total, n)
	rec.set("trace.session_reconstruct_frac",
		(selfS.median()+transS.median()+nsS.median()+provS.median())/durS.median(), n)
}

// shares reports how an operation's time splits between transport,
// namespace and provider.
func (a *analysis) shares(rec *recorder, total breakdown, n int) {
	if total.dur == 0 {
		return
	}
	rec.set("transport.share_of_session", float64(total.transport)/float64(total.dur), n)
	rec.set("namespace.share_of_session", float64(total.namespace)/float64(total.dur), n)
	rec.set("provider.serve_share_of_session", float64(total.provider)/float64(total.dur), n)
}

// opTotals sums the breakdowns of every successful root operation named
// name, and collects each one's own (self) time.
func (a *analysis) opTotals(name string) (total breakdown, self sample, n int) {
	for _, s := range a.rootOps(name) {
		b := a.breakdown(s)
		total.add(b)
		self.add(a.us(b.self))
		n++
	}
	return total, self, n
}

// commonMetrics reports what every traced workload has: the per-type RPC
// table, transport overhead, namespace serve time, background traffic.
// unitOps is the number of workload operations the window completed.
func (a *analysis) commonMetrics(rec *recorder, unitOps float64) {
	type perType struct {
		call, serve sample
	}
	byType := make(map[string]*perType, len(rpcTypes))
	for _, t := range rpcTypes {
		byType[t] = &perType{}
	}
	var small, perMiB, nsServe sample
	providerCalls := 0
	for _, s := range a.spans {
		switch s.Kind {
		case kindCall:
			if a.roles[s.Node] == roleProvider {
				providerCalls++
			}
			pt := byType[a.tr.name(s.Name)]
			if pt != nil {
				pt.call.add(a.us(s.dur()))
			}
			if sv, ok := a.serveOf(s); ok && !s.Err {
				over := a.us(s.dur() - sv.dur())
				switch {
				case s.Bytes <= 4<<10:
					small.add(over)
				case s.Bytes >= 128<<10:
					perMiB.add(over / (float64(s.Bytes) / (1 << 20)))
				}
			}
		case kindServe:
			if pt := byType[a.tr.name(s.Name)]; pt != nil {
				pt.serve.add(a.us(s.dur()))
			}
			if a.roles[s.Node] == roleNamespace {
				nsServe.add(a.us(s.dur()))
			}
		}
	}
	for _, t := range rpcTypes {
		pt := byType[t]
		if unitOps > 0 {
			// Every call of the type in the window, background replication
			// included: the operations caused that too.
			rec.set("rpc."+t+".per_op", float64(pt.call.n())/unitOps, pt.call.n())
		}
		rec.set("rpc."+t+".call_us_p50", pt.call.median(), pt.call.n())
		rec.set("rpc."+t+".serve_us_p50", pt.serve.median(), pt.serve.n())
	}
	rec.set("transport.overhead_us_p50", small.median(), small.n())
	rec.set("transport.overhead_us_per_MiB", perMiB.median(), perMiB.n())
	rec.set("namespace.serve_us_p50", nsServe.median(), nsServe.n())
	if w := a.window.Seconds(); w > 0 {
		rec.set("provider.background_rpcs_per_s", float64(providerCalls)/w, providerCalls)
		rec.set("membership.casts_per_s", float64(a.casts)/w, int(a.casts))
	}
}
