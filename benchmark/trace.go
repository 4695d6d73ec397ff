package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The benchmark sees inside the program without touching it: nodes join
// through a transport.Network decorator whose endpoints time every Call
// (client side) and whose handlers time every HandleCall (server side).
// The span context rides the transport's existing trace fields, so a serve
// span names the call span that caused it even across loopback TCP.

type spanKind uint8

const (
	kindOp    spanKind = iota // a load-generator operation or one of its phases
	kindCall                  // Endpoint.Call as seen by the caller
	kindServe                 // Handler.HandleCall as seen by the callee
)

func (k spanKind) String() string { return [...]string{"op", "call", "serve"}[k] }

// backgroundOp is the trace ID of calls no load-generator operation caused
// (replication, location updates, repair). Real operations count up from it.
const backgroundOp = 1

// span is one timed interval. Op ties the spans of one operation together;
// Parent is the span that caused this one.
type span struct {
	ID, Parent, Op uint64
	Start, End     int64 // wall ns since the tracer was made
	Kind           spanKind
	Name           uint16 // index into tracer.names: op name or message type
	Node, Peer     uint16 // index into tracer.names: where it ran, whom it talked to
	Bytes          int32  // bulk payload carried (request or response)
	Err            bool
}

func (s span) dur() int64 { return s.End - s.Start }

const spanShards = 8

// tracer collects spans in memory; nothing is written until the run ends.
type tracer struct {
	t0  time.Time
	on  atomic.Bool // wrappers forward untouched while off
	seq atomic.Uint64

	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
	}
	casts atomic.Int64 // HandleCast deliveries while on

	// Names (operation names, message types, node IDs) are interned so
	// spans stay small and pointer-free; lookups on the call path are
	// lock-free.
	index sync.Map // string -> uint16
	types sync.Map // reflect.Type -> uint16 (message type name)

	mu    sync.Mutex
	names []string
	eps   map[wire.NodeID]*tracedEndpoint
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), eps: make(map[wire.NodeID]*tracedEndpoint)}
	t.seq.Store(backgroundOp)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// nowOr0 is now for a tracer that may be nil (untraced runs).
func (t *tracer) nowOr0() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) nextID() uint64 { return t.seq.Add(1) }

func (t *tracer) intern(s string) uint16 {
	if i, ok := t.index.Load(s); ok {
		return i.(uint16)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index.Load(s); ok {
		return i.(uint16)
	}
	i := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index.Store(s, i)
	return i
}

func (t *tracer) name(i uint16) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.names[i]
}

func (t *tracer) add(s span) {
	sh := &t.shards[s.ID%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// drain returns every span recorded so far, ordered by start, and forgets
// them.
func (t *tracer) drain() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

func (t *tracer) msgType(msg any) uint16 {
	rt := reflect.TypeOf(msg)
	if i, ok := t.types.Load(rt); ok {
		return i.(uint16)
	}
	i := t.intern(obs.MsgTypeName(msg))
	t.types.Store(rt, i)
	return i
}

// network decorates inner so every node joined through it is traced.
func (t *tracer) network(inner transport.Network) transport.Network {
	return &tracedNetwork{inner: inner, tr: t}
}

// endpoint returns the traced endpoint a node joined as.
func (t *tracer) endpoint(id wire.NodeID) *tracedEndpoint {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eps[id]
}

type tracedNetwork struct {
	inner transport.Network
	tr    *tracer
}

func (n *tracedNetwork) Join(id wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	return n.join(id, h, func(th transport.Handler) (transport.Endpoint, error) { return n.inner.Join(id, th) })
}

func (n *tracedNetwork) JoinAt(id, host wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	return n.join(id, h, func(th transport.Handler) (transport.Endpoint, error) { return n.inner.JoinAt(id, host, th) })
}

func (n *tracedNetwork) join(id wire.NodeID, h transport.Handler, join func(transport.Handler) (transport.Endpoint, error)) (transport.Endpoint, error) {
	th := &tracedHandler{inner: h, tr: n.tr}
	ep, err := join(th)
	if err != nil {
		return nil, err
	}
	te := &tracedEndpoint{Endpoint: ep, tr: n.tr, node: n.tr.intern(string(ep.ID()))}
	th.ep.Store(te)
	n.tr.mu.Lock()
	n.tr.eps[ep.ID()] = te
	if id != ep.ID() {
		n.tr.eps[id] = te
	}
	n.tr.mu.Unlock()
	return te, nil
}

// opRef names the span that calls issued on an endpoint parent on.
type opRef struct{ op, span uint64 }

// tracedEndpoint forwards ID, Host, Multicast and Close to the embedded
// endpoint unchanged and times Call.
type tracedEndpoint struct {
	transport.Endpoint
	tr   *tracer
	node uint16
	// cur is the operation this endpoint is working for. A load-generator
	// goroutine runs one operation at a time on its own endpoint, so every
	// Call between the operation's start and end is its child, whichever
	// goroutine of the client library issues it.
	cur atomic.Pointer[opRef]
}

func (e *tracedEndpoint) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	t := e.tr
	if !t.on.Load() {
		return e.Endpoint.Call(ctx, to, req)
	}
	ref := opRef{op: backgroundOp}
	if sc, ok := obs.FromContext(ctx); ok {
		ref = opRef{sc.TraceID, sc.SpanID}
	} else if r := e.cur.Load(); r != nil {
		ref = *r
	}
	id := t.nextID()
	ctx = obs.ContextWith(ctx, obs.SpanContext{TraceID: ref.op, SpanID: id})
	start := t.now()
	resp, err := e.Endpoint.Call(ctx, to, req)
	t.add(span{ID: id, Parent: ref.span, Op: ref.op, Start: start, End: t.now(), Kind: kindCall,
		Name: t.msgType(req), Node: e.node, Peer: t.intern(string(to)), Bytes: payloadBytes(req, resp), Err: err != nil})
	return resp, err
}

// tracedHandler times the wrapped handler's HandleCall and counts casts.
type tracedHandler struct {
	inner transport.Handler
	tr    *tracer
	ep    atomic.Pointer[tracedEndpoint] // this node's own endpoint, set once joined
}

func (h *tracedHandler) HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error) {
	t := h.tr
	if !t.on.Load() {
		return h.inner.HandleCall(ctx, from, req)
	}
	sc, _ := obs.FromContext(ctx)
	if sc.TraceID == 0 {
		sc.TraceID = backgroundOp
	}
	id := t.nextID()
	ep := h.ep.Load()
	var node uint16
	if ep != nil {
		node = ep.node
		if sc.TraceID != backgroundOp {
			// Calls this node issues while serving parent on the serve
			// span. The attribution is exact while the node serves one
			// request at a time (the proxy under one serial thin client).
			ref := &opRef{sc.TraceID, id}
			prev := ep.cur.Swap(ref)
			defer ep.cur.CompareAndSwap(ref, prev)
		}
	}
	start := t.now()
	resp, err := h.inner.HandleCall(ctx, from, req)
	t.add(span{ID: id, Parent: sc.SpanID, Op: sc.TraceID, Start: start, End: t.now(), Kind: kindServe,
		Name: t.msgType(req), Node: node, Peer: t.intern(string(from)), Bytes: payloadBytes(req, resp), Err: err != nil})
	return resp, err
}

func (h *tracedHandler) HandleCast(from wire.NodeID, msg any) {
	if h.tr.on.Load() {
		h.tr.casts.Add(1)
	}
	h.inner.HandleCast(from, msg)
}

// payloadBytes is the bulk data a request or its response carries.
func payloadBytes(req, resp any) int32 {
	switch m := req.(type) {
	case wire.SegWrite:
		return int32(len(m.Data))
	case wire.SegCreate:
		return int32(len(m.Data))
	case wire.PWrite:
		return int32(len(m.Data))
	}
	switch m := resp.(type) {
	case wire.SegReadResp:
		return int32(len(m.Data))
	case wire.SegFetchResp:
		return int32(len(m.Data))
	case wire.PReadResp:
		return int32(len(m.Data))
	}
	return 0
}

// opHandle is an open operation span. The zero handle (tracing off) is
// valid and records nothing.
type opHandle struct {
	t      *tracer
	ep     *tracedEndpoint
	s      span
	parent *opRef
}

// beginOp opens a root operation on ep: later calls on ep are its children.
func (t *tracer) beginOp(ep *tracedEndpoint, name string) opHandle {
	if t == nil || !t.on.Load() || ep == nil {
		return opHandle{}
	}
	id := t.nextID()
	h := opHandle{t: t, ep: ep, s: span{ID: id, Op: id, Start: t.now(), Kind: kindOp, Name: t.intern(name), Node: ep.node}}
	ep.cur.Store(&opRef{id, id})
	return h
}

// phase opens a child operation span of h; calls parent on it until it ends.
func (h opHandle) phase(name string) opHandle {
	if h.t == nil {
		return opHandle{}
	}
	id := h.t.nextID()
	p := opHandle{t: h.t, ep: h.ep, parent: &opRef{h.s.Op, h.s.ID},
		s: span{ID: id, Parent: h.s.ID, Op: h.s.Op, Start: h.t.now(), Kind: kindOp, Name: h.t.intern(name), Node: h.s.Node}}
	h.ep.cur.Store(&opRef{h.s.Op, id})
	return p
}

// end closes the span and hands the endpoint back to the parent operation.
func (h opHandle) end(failed bool) {
	if h.t == nil {
		return
	}
	h.s.End = h.t.now()
	h.s.Err = failed
	h.ep.cur.Store(h.parent)
	h.t.add(h.s)
}

// ---------------------------------------------------------------------------
// Interval arithmetic

type interval struct{ lo, hi int64 }

// unionOf merges intervals into disjoint ones, clipped to [lo, hi].
func unionOf(ivs []interval, lo, hi int64) []interval {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var out []interval
	for _, iv := range clipped {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func totalLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - totalLen(unionOf(children, lo, hi))
}

// subtract returns the parts of a (disjoint, sorted) not covered by b
// (disjoint, sorted).
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < iv.hi; k++ {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Trace file

type traceSpanJSON struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Node    string `json:"node"`
	Peer    string `json:"peer,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Bytes   int32  `json:"bytes,omitempty"`
	Err     bool   `json:"err,omitempty"`
}

// maxTraceFileSpans bounds the trace file: a 10 s traced run records several
// hundred thousand spans, and the per-layer metrics are computed from all
// of them in memory; the file is for reading individual operations.
const maxTraceFileSpans = 20000

// writeTrace writes the first maxTraceFileSpans spans and the per-layer
// metrics derived from all of them to benchmark/out/<workload>-trace.json.
func (t *tracer) writeTrace(dir, workload string, spans []span, metrics map[string]metricValue) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	n := len(spans)
	if n > maxTraceFileSpans {
		n = maxTraceFileSpans
	}
	out := make([]traceSpanJSON, n)
	for i, s := range spans[:n] {
		out[i] = traceSpanJSON{ID: s.ID, Parent: s.Parent, Op: s.Op, Kind: s.Kind.String(), Name: t.name(s.Name),
			Node: t.name(s.Node), StartNs: s.Start, DurNs: s.dur(), Bytes: s.Bytes, Err: s.Err}
		if s.Kind != kindOp {
			out[i].Peer = t.name(s.Peer)
		}
	}
	doc := struct {
		Workload     string                 `json:"workload"`
		SpansTotal   int                    `json:"spans_total"`
		SpansWritten int                    `json:"spans_written"`
		Metrics      map[string]metricValue `json:"per_layer"`
		Spans        []traceSpanJSON        `json:"spans"`
	}{workload, len(spans), n, metrics, out}
	path := filepath.Join(dir, workload+"-trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
