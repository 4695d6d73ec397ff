package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

type tcpEcho struct {
	mu    sync.Mutex
	casts []any
}

func (h *tcpEcho) HandleCall(_ context.Context, from wire.NodeID, req any) (any, error) {
	return req, nil
}

func (h *tcpEcho) HandleCast(from wire.NodeID, msg any) {
	h.mu.Lock()
	h.casts = append(h.casts, msg)
	h.mu.Unlock()
}

func (h *tcpEcho) castCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.casts)
}

func TestTCPCallRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", "", nil, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Rebind with the actual port as the advertised ID.
	b, err := ListenTCP("127.0.0.1:0", "", nil, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	bAddr := wire.NodeID(b.ln.Addr().String())
	resp, err := a.Call(context.Background(), bAddr, wire.SegRead{Offset: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.SegRead); got.Offset != 99 {
		t.Errorf("echo = %+v", got)
	}
}

func TestTCPCallConnectionRefused(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", "", nil, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.Call(ctx, "127.0.0.1:1", wire.SegRead{}); err == nil {
		t.Fatal("call to dead address succeeded")
	}
}

func TestTCPMulticastFanOut(t *testing.T) {
	recv := &tcpEcho{}
	b, err := ListenTCP("127.0.0.1:0", "", nil, recv)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bAddr := b.ln.Addr().String()

	a, err := ListenTCP("127.0.0.1:0", "", []string{bAddr}, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Multicast(wire.Heartbeat{From: a.ID(), Seq: 1})
	deadline := time.After(3 * time.Second)
	for recv.castCount() == 0 {
		select {
		case <-deadline:
			t.Fatal("multicast never arrived")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestTCPPeerLearning(t *testing.T) {
	recv := &tcpEcho{}
	b, err := ListenTCP("127.0.0.1:0", "", nil, recv)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bAddr := wire.NodeID(b.ln.Addr().String())

	a, err := ListenTCP("127.0.0.1:0", "", nil, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// a calls b: b should learn a as a peer and reach it via multicast.
	// a's advertised ID defaults to its bind (resolved at runtime), so set
	// it via a fresh node instead: here we simply assert b recorded a peer.
	if _, err := a.Call(context.Background(), bAddr, wire.SegRead{}); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	peers := len(b.peers)
	b.mu.Unlock()
	if peers == 0 {
		t.Error("callee did not learn the caller as a peer")
	}
}

func TestTCPClosedNodeRejectsCalls(t *testing.T) {
	before := runtime.NumGoroutine()
	a, err := ListenTCP("127.0.0.1:0", "", nil, &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	b := listen(t, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		served.Add(1)
		return req, nil
	}))
	if _, err := a.Call(context.Background(), b.ID(), wire.SegRead{}); err != nil {
		t.Fatal(err)
	}
	if got := len(idleTo(a, b.ID())); got != 1 {
		t.Fatalf("%d idle connections after one call, want 1", got)
	}

	// Calls to a node closed while the caller holds an idle connection to it
	// fail at once: the caller sees the end of file before it writes, finds
	// nobody listening, and never waits out the 60 s default deadline.
	b.Close()
	start := time.Now()
	_, err = a.Call(context.Background(), b.ID(), wire.SegRead{})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("call to closed node: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("call to closed node took %v", d)
	}
	if got := served.Load(); got != 1 {
		t.Errorf("closed node's handler ran %d times, want 1", got)
	}

	// Calls from a closed node.
	a.Close()
	if _, err := a.Call(context.Background(), "127.0.0.1:1", wire.SegRead{}); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// Idempotent close.
	a.Close()

	// Close waited for every goroutine of both nodes.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after both nodes closed, %d before they started", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listen starts a node on a fresh loopback port and closes it with the test.
func listen(t testing.TB, h Handler) *TCPNode {
	t.Helper()
	n, err := ListenTCP("127.0.0.1:0", "", nil, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// idleTo returns a copy of n's idle connections to peer.
func idleTo(n *TCPNode, peer wire.NodeID) []idleConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]idleConn(nil), n.idle[peer]...)
}

func acceptedBy(n *TCPNode) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.accepted)
}

func TestTCPSequentialCallsShareOneConnection(t *testing.T) {
	a, b := listen(t, &tcpEcho{}), listen(t, &tcpEcho{})
	const calls = 1000
	var first *countingConn
	var frame int64
	for i := 0; i < calls; i++ {
		if _, err := a.Call(context.Background(), b.ID(), wire.SegRead{Offset: 7}); err != nil {
			t.Fatal(err)
		}
		idle := idleTo(a, b.ID())
		if len(idle) != 1 {
			t.Fatalf("call %d: %d idle connections, want 1", i, len(idle))
		}
		if i == 0 {
			first, frame = idle[0].c, idle[0].c.wr
		} else if idle[0].c != first {
			t.Fatalf("call %d went over a new connection", i)
		}
	}
	// Every request frame went out on the one connection, so the peer
	// accepted exactly once.
	if first.wr != calls*frame {
		t.Errorf("pooled connection carried %d request bytes, want %d x %d", first.wr, calls, frame)
	}
	if got := acceptedBy(b); got != 1 {
		t.Errorf("peer serves %d connections, want 1", got)
	}
}

func TestTCPConcurrentCallsDoNotShareAConnection(t *testing.T) {
	const callers = 8
	var arrived sync.WaitGroup
	arrived.Add(callers)
	// The handler returns only once all callers are inside it: calls queued
	// behind one another on a shared socket would never get there.
	b := listen(t, CallFunc(func(ctx context.Context, _ wire.NodeID, req any) (any, error) {
		arrived.Done()
		arrived.Wait()
		return req, nil
	}))
	a := listen(t, &tcpEcho{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			resp, err := a.Call(ctx, b.ID(), wire.SegRead{Offset: int64(i)})
			if err == nil && resp.(wire.SegRead).Offset != int64(i) {
				err = fmt.Errorf("caller %d got %+v", i, resp)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := len(idleTo(a, b.ID())); got != callers {
		t.Errorf("%d idle connections after %d concurrent calls (cap %d)", got, callers, maxIdlePerPeer)
	}
}

// checkOutN takes n connections to peer out of a's pool at once.
func checkOutN(t *testing.T, a *TCPNode, peer wire.NodeID, n int) []*countingConn {
	t.Helper()
	conns := make([]*countingConn, n)
	for i := range conns {
		c, err := a.checkOut(context.Background(), peer)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

func TestTCPIdlePoolIsCapped(t *testing.T) {
	a, b := listen(t, &tcpEcho{}), listen(t, &tcpEcho{})
	for _, c := range checkOutN(t, a, b.ID(), maxIdlePerPeer+3) {
		a.checkIn(b.ID(), c)
	}
	if got := len(idleTo(a, b.ID())); got != maxIdlePerPeer {
		t.Errorf("%d idle connections, want the cap %d", got, maxIdlePerPeer)
	}
}

func TestTCPIdleConnectionsExpire(t *testing.T) {
	a, b := listen(t, &tcpEcho{}), listen(t, &tcpEcho{})
	conns := checkOutN(t, a, b.ID(), 3)
	for _, c := range conns {
		a.checkIn(b.ID(), c)
	}
	// The two oldest have been idle too long; the newest is reused.
	a.mu.Lock()
	for i := range a.idle[b.ID()][:2] {
		a.idle[b.ID()][i].since = time.Now().Add(-clientIdleLife)
	}
	a.mu.Unlock()
	got := a.takeIdle(b.ID(), time.Now())
	if got != conns[2] {
		t.Error("takeIdle did not return the newest connection")
	}
	if left := len(idleTo(a, b.ID())); left != 0 {
		t.Errorf("%d idle connections left, want 0", left)
	}
	if connAlive(conns[0].Conn) {
		t.Error("expired connection was not closed")
	}
	got.Close()
}

func TestTCPPeerRestartBetweenCalls(t *testing.T) {
	var ran [2]atomic.Int64 // per incarnation of the peer
	counting := func(k int) Handler {
		return CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
			ran[k].Add(1)
			return req, nil
		})
	}
	a := listen(t, &tcpEcho{})
	b, err := ListenTCP("127.0.0.1:0", "", nil, counting(0))
	if err != nil {
		t.Fatal(err)
	}
	addr := b.ID()
	if _, err := a.Call(context.Background(), addr, wire.SegRead{Offset: 1}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b2, err := ListenTCP(string(addr), "", nil, counting(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// The pooled connection to the first incarnation is found dead before
	// anything is written on it; the request goes to the second, once.
	resp, err := a.Call(context.Background(), addr, wire.SegRead{Offset: 2})
	if err != nil {
		t.Fatalf("call after peer restart: %v", err)
	}
	if got := resp.(wire.SegRead).Offset; got != 2 {
		t.Errorf("reply offset %d, want 2", got)
	}
	if r0, r1 := ran[0].Load(), ran[1].Load(); r0 != 1 || r1 != 1 {
		t.Errorf("handlers ran %d and %d times, want 1 and 1", r0, r1)
	}
}

func TestTCPLateReplyNeverReachesNextCall(t *testing.T) {
	release := make(chan struct{})
	replied := make(chan struct{})
	b := listen(t, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		if _, slow := req.(wire.SegRead); slow {
			defer close(replied)
			<-release
		}
		return req, nil
	}))
	a := listen(t, &tcpEcho{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, b.ID(), wire.SegRead{Offset: 1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call: err = %v, want ErrTimeout", err)
	}
	if got := len(idleTo(a, b.ID())); got != 0 {
		t.Errorf("%d idle connections after a timed-out call, want 0", got)
	}
	close(release)
	<-replied // the late reply is on its way to a connection nobody reads
	resp, err := a.Call(context.Background(), b.ID(), wire.SegDelete{Seg: [16]byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := resp.(wire.SegDelete); !ok || got.Seg != [16]byte{9} {
		t.Errorf("second call got %#v, want its own SegDelete echo", resp)
	}
}

func TestTCPHandlerErrorKeepsConnection(t *testing.T) {
	b := listen(t, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		if _, bad := req.(wire.SegDelete); bad {
			return nil, errors.New("no such segment")
		}
		return req, nil
	}))
	a := listen(t, &tcpEcho{})
	_, err := a.Call(context.Background(), b.ID(), wire.SegDelete{})
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want the handler's error", err)
	}
	idle := idleTo(a, b.ID())
	if len(idle) != 1 {
		t.Fatalf("%d idle connections after an error reply, want 1", len(idle))
	}
	if _, err := a.Call(context.Background(), b.ID(), wire.SegRead{}); err != nil {
		t.Fatal(err)
	}
	if again := idleTo(a, b.ID()); len(again) != 1 || again[0].c != idle[0].c {
		t.Error("call after an error reply did not reuse the connection")
	}
}

func TestTCPReplyLandsInReplyBuffer(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b := listen(t, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		if _, ok := req.(wire.SegRead); ok {
			return wire.SegReadResp{OK: true, Data: payload, Sum: wire.SumOf(payload)}, nil
		}
		return req, nil
	}))
	a := listen(t, &tcpEcho{})
	call := func(ctx context.Context, req any) any {
		t.Helper()
		resp, err := a.Call(ctx, b.ID(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	read := func(ctx context.Context) []byte {
		t.Helper()
		r := call(ctx, wire.SegRead{}).(wire.SegReadResp)
		if !bytes.Equal(r.Data, payload) || r.Sum != wire.SumOf(payload) {
			t.Fatalf("reply data or sum differs from what was sent")
		}
		return r.Data
	}

	// A payload that fits lands in the buffer itself.
	dst := make([]byte, 4096)
	if got := read(WithReplyBuffer(context.Background(), dst)); &got[0] != &dst[0] || cap(got) != len(payload) {
		t.Errorf("reply did not land in the reply buffer (cap %d)", cap(got))
	}
	// A payload longer than the buffer gets its own slice and leaves the
	// buffer alone.
	short := make([]byte, len(payload)-1)
	if got := read(WithReplyBuffer(context.Background(), short)); &got[0] == &short[0] || !bytes.Equal(short, make([]byte, len(short))) {
		t.Error("a reply longer than the buffer was decoded into it")
	}
	// Without a buffer the payload is a fresh copy, as it always was.
	if got := read(context.Background()); &got[0] == &dst[0] {
		t.Error("a call without a reply buffer reused one")
	}
	// Only SegReadResp.Data uses the buffer.
	clear(dst)
	w := call(WithReplyBuffer(context.Background(), dst), wire.SegWrite{Data: payload}).(wire.SegWrite)
	if &w.Data[0] == &dst[0] || !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Error("a SegWrite payload was decoded into the reply buffer")
	}
}

// TestTCPServeLendsTheRequestFrame: the server decodes a request as a view
// of its pooled frame, so serving a 1 MiB SegWrite allocates no payload —
// the handler gets the frame's bytes and the frame goes back to the pool
// after the reply. The bound is on the least any of the calls allocates (a
// call that finds a frame pool emptied by the GC refills it); the whole call
// is counted, client side included, so it bounds the server's share too.
func TestTCPServeLendsTheRequestFrame(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 13)
	}
	var sum atomic.Uint32 // the race detector cannot see the socket order
	srv := listen(t, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		w := req.(wire.SegWrite)
		sum.Store(wire.SumOf(w.Data))
		return wire.SegWriteResp{OK: true, N: len(w.Data)}, nil
	}))
	cli := listen(t, &tcpEcho{})
	req := wire.SegWrite{Owner: "127.0.0.1:7001#1", Seg: [16]byte{1}, Data: big}
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		resp, err := cli.Call(context.Background(), srv.ID(), req)
		runtime.ReadMemStats(&after)
		if err != nil || resp.(wire.SegWriteResp).N != len(big) || sum.Load() != wire.SumOf(big) {
			t.Fatalf("call %d: %v %+v; handler saw other bytes: %v", i, err, resp, sum.Load() != wire.SumOf(big))
		}
		if i > 0 { // the first call dials
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if least >= 64<<10 {
		t.Fatalf("serving a 1 MiB SegWrite allocates at least %d bytes, want < 64 KiB", least)
	}
}

// BenchmarkTCPCall measures one call over loopback on a pooled connection:
// a namespace-sized request and reply, a 12 KiB and a 1 MiB segment write
// (served from the request frame itself), and a 1 MiB segment read reply,
// decoded to fresh memory and into a reply buffer.
func BenchmarkTCPCall(b *testing.B) {
	small := make([]byte, 12<<10)
	big := make([]byte, 1<<20)
	readResp := wire.SegReadResp{OK: true, Version: 1, Data: big, Sum: wire.SumOf(big)}
	srv := listen(b, CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		switch req.(type) {
		case wire.NSLookup:
			return wire.NSLookupResp{OK: true}, nil
		case wire.SegWrite:
			return wire.SegWriteResp{OK: true, N: len(req.(wire.SegWrite).Data)}, nil
		default:
			return readResp, nil
		}
	}))
	cli := listen(b, &tcpEcho{})
	into := WithReplyBuffer(context.Background(), make([]byte, len(big)))
	for _, bc := range []struct {
		name  string
		ctx   context.Context
		req   any
		bytes int
	}{
		{"small", context.Background(), wire.NSLookup{Path: "/c0/g1/f0000001"}, 0},
		{"SegWrite_12KiB", context.Background(), wire.SegWrite{Owner: "127.0.0.1:7001#1", Seg: [16]byte{1}, Data: small}, len(small)},
		{"SegWrite_1MiB", context.Background(), wire.SegWrite{Owner: "127.0.0.1:7001#1", Seg: [16]byte{1}, Data: big}, len(big)},
		{"SegReadResp_1MiB", context.Background(), wire.SegRead{Seg: [16]byte{1}, Length: 1 << 20}, len(big)},
		{"SegReadResp_1MiB_into", into, wire.SegRead{Seg: [16]byte{1}, Length: 1 << 20}, len(big)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Call(bc.ctx, srv.ID(), bc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTCPNetworkJoin(t *testing.T) {
	net := &TCPNetwork{Bind: "127.0.0.1:0"}
	ep, err := net.Join("127.0.0.1:0", &tcpEcho{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.Host() != ep.ID() {
		t.Error("TCP node host != id")
	}
}
