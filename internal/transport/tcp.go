package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Wire format: a request is a 4-byte big-endian length prefix followed by a
// wire.AppendEnvelope body (sender, trace/span context, tagged message); the
// reply is a prefixed wire.AppendReply body (error string plus optional
// tagged message). UDP multicast datagrams are the envelope body without the
// prefix — the datagram boundary already frames it. Frame buffers come from
// bufpool. The server decodes a request as a view of its frame
// (wire.DecodeEnvelopeView): payloads alias the frame, which goes back to
// the pool only after the handler has returned and the reply is written, so
// a request payload is copied once, by the handler that keeps it (see
// Handler.HandleCall). A reply frame is recycled as soon as it is decoded:
// the codec copies every payload out of it, to fresh memory except for a
// SegReadResp.Data that fits the reply buffer the call's context carries
// (WithReplyBuffer), which is copied straight into that buffer. Datagrams
// are decoded to copies, since their handlers may hand messages on.
//
// Connections: a TCP connection carries any number of request/reply pairs,
// strictly one at a time. The caller takes an idle connection to the peer
// out of its node's pool (dialling when none is idle), has it to itself for
// one request and one reply, and puts it back only after a complete,
// decodable reply; any other outcome closes it, so a late reply is never
// read by the next caller. N concurrent calls to one peer use N sockets: a
// bulk frame never sits in front of a small one, and a deadline ends one
// call without touching another. Requests are never resent, so an idle
// connection is probed (connAlive) before a request is written on it, and
// the caller retires connections idle for clientIdleLife, well before the
// serving side's serverIdleTimeout: a healthy connection is closed by the
// side that would otherwise write into it.

// maxFrame bounds a single request or reply body. The largest legitimate
// message is a SegWrite near the 64 MB segment ceiling; 256 MB leaves
// headroom while keeping a corrupt length prefix from allocating the moon.
const maxFrame = 256 << 20

const (
	// serverIdleTimeout bounds one turn of an accepted connection: the wait
	// for the next request, reading it and writing its reply.
	serverIdleTimeout = 5 * time.Minute
	// clientIdleLife is how long a connection may sit in the pool and still
	// be reused. It must stay below serverIdleTimeout.
	clientIdleLife = time.Minute
	// maxIdlePerPeer caps the pool per peer. A burst of more concurrent
	// calls still gets a socket each; the excess is closed after use.
	maxIdlePerPeer = 16
	// defaultCallTimeout bounds a call whose context has no deadline.
	defaultCallTimeout = time.Minute
)

// TCPNode is a real-network endpoint for the cmd/ daemons: requests travel
// over pooled TCP connections (length-prefixed binary codec frames), and the
// multicast channel is emulated by UDP fan-out to the known peer set (seed
// addresses plus every sender ever heard from — heartbeats make the set
// converge). A node's ID is its advertised host:port.
type TCPNode struct {
	id      wire.NodeID
	handler Handler
	ln      net.Listener
	udp     *net.UDPConn

	obs *obs.Obs
	cli *obs.RPCRecorder // per-type client-side call metrics
	srv *obs.RPCRecorder // per-type server-side service metrics

	closed atomic.Bool
	wg     sync.WaitGroup // acceptLoop, udpLoop and one serve per accepted connection

	mu sync.Mutex
	// peers is every address ever added; peerAddrs holds the resolved ones
	// and only grows, so Multicast walks a snapshot of it without the lock.
	peers     map[string]struct{}
	peerAddrs []*net.UDPAddr
	idle      map[wire.NodeID][]idleConn // per peer, oldest first; nil once closed
	accepted  map[net.Conn]struct{}      // connections being served
}

// idleConn is a pooled client connection and when it was put back.
type idleConn struct {
	c     *countingConn
	since time.Time
}

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts serving on bind (TCP and UDP on the same port).
// advertise is the address peers use to reach this node (defaults to bind);
// seeds are initial peer addresses for the multicast emulation.
func ListenTCP(bind, advertise string, seeds []string, h Handler) (*TCPNode, error) {
	return ListenTCPObs(bind, advertise, seeds, h, nil)
}

// ListenTCPObs is ListenTCP with observability: every call/serve lands in
// per-message-type latency and byte series (actual framed wire bytes, not
// estimates), and span contexts ride the call envelope so traces cross
// machines. A nil o disables all of it.
func ListenTCPObs(bind, advertise string, seeds []string, h Handler, o *obs.Obs) (*TCPNode, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen tcp %s: %w", bind, err)
	}
	// The UDP socket shares the TCP listener's resolved port so one
	// advertised address reaches both; the advertised ID defaults to the
	// resolved address (":0" binds pick their port at listen time).
	resolved := ln.Addr().String()
	if advertise == "" {
		advertise = resolved
	}
	uaddr, err := net.ResolveUDPAddr("udp", resolved)
	if err != nil {
		ln.Close()
		return nil, err
	}
	udp, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: listen udp %s: %w", resolved, err)
	}
	n := &TCPNode{
		id:       wire.NodeID(advertise),
		handler:  h,
		ln:       ln,
		udp:      udp,
		obs:      o,
		cli:      obs.NewRPCRecorder(o.Reg(), "client", advertise),
		srv:      obs.NewRPCRecorder(o.Reg(), "server", advertise),
		peers:    make(map[string]struct{}),
		idle:     make(map[wire.NodeID][]idleConn),
		accepted: make(map[net.Conn]struct{}),
	}
	for _, s := range seeds {
		n.AddPeer(s)
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.udpLoop()
	// Announce ourselves to the seeds so their multicast fan-out includes
	// this node (pure listeners — clients — would otherwise never hear
	// heartbeats).
	n.Multicast(wire.Hello{From: n.id})
	return n, nil
}

// ID implements Endpoint.
func (n *TCPNode) ID() wire.NodeID { return n.id }

// Host implements Endpoint (a TCP node is its own host).
func (n *TCPNode) Host() wire.NodeID { return n.id }

// countingConn tallies the bytes crossing a net.Conn so RPC byte metrics
// report real framed traffic, not estimates.
type countingConn struct {
	net.Conn
	rd, wr int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr += int64(n)
	return n, err
}

// envelopeFrame builds a length-prefixed request frame in a pooled buffer.
// The caller owns the returned buffer and must bufpool.Put it after writing.
func envelopeFrame(from wire.NodeID, trace, span uint64, msg any) ([]byte, error) {
	sz, ok := wire.EnvelopeSize(from, msg)
	if !ok || sz > maxFrame {
		return nil, fmt.Errorf("transport: cannot frame %T (encodable=%v)", msg, ok)
	}
	buf := bufpool.Get(4 + sz)[:4]
	binary.BigEndian.PutUint32(buf, uint32(sz))
	buf, err := wire.AppendEnvelope(buf, from, trace, span, msg)
	if err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// readFrame reads one length-prefixed frame body into a pooled buffer. The
// caller must bufpool.Put the result once decoded.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	sz := binary.BigEndian.Uint32(hdr[:])
	if sz > maxFrame {
		return nil, fmt.Errorf("transport: %d-byte frame exceeds %d limit", sz, maxFrame)
	}
	buf := bufpool.Get(int(sz))
	if _, err := io.ReadFull(r, buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// replyBufferKey is the context key of WithReplyBuffer.
type replyBufferKey struct{}

// WithReplyBuffer returns a context whose call may decode a SegReadResp's
// Data into dst instead of fresh memory: the reply's Data is then dst[:n].
// The caller must not touch dst until the call returns, and must read the
// reply's Data rather than dst, which may hold bytes of an unusable reply.
// A transport whose payloads already alias other memory (the simulated
// fabric) ignores it.
func WithReplyBuffer(ctx context.Context, dst []byte) context.Context {
	return context.WithValue(ctx, replyBufferKey{}, dst)
}

// Call implements Endpoint.
func (n *TCPNode) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	if n.cli == nil {
		return n.call(ctx, to, req)
	}
	var sp *obs.Span
	if _, traced := obs.FromContext(ctx); traced {
		ctx, sp = n.obs.Tr().Start(ctx, string(n.id), "rpc:"+obs.MsgTypeName(req))
	}
	start := time.Now()
	resp, sent, recv, err := n.doCall(ctx, to, req)
	sp.SetError(err)
	sp.End()
	n.cli.Observe(req, sent, recv, time.Since(start), err)
	return resp, err
}

func (n *TCPNode) call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	resp, _, _, err := n.doCall(ctx, to, req)
	return resp, err
}

func (n *TCPNode) doCall(ctx context.Context, to wire.NodeID, req any) (resp any, sent, recv int, err error) {
	if n.closed.Load() {
		return nil, 0, 0, ErrClosed
	}
	var trace, span uint64
	if sc, ok := obs.FromContext(ctx); ok {
		trace, span = sc.TraceID, sc.SpanID
	}
	frame, err := envelopeFrame(n.id, trace, span, req)
	if err != nil {
		return nil, 0, 0, err
	}
	conn, err := n.checkOut(ctx, to)
	if err != nil {
		bufpool.Put(frame)
		return nil, 0, 0, fmt.Errorf("%w: dial %s: %v", ErrTimeout, to, err)
	}
	wr0, rd0 := conn.wr, conn.rd
	reusable := false
	defer func() {
		sent, recv = int(conn.wr-wr0), int(conn.rd-rd0)
		if reusable {
			n.checkIn(to, conn)
		} else {
			conn.Close()
		}
	}()
	_, werr := conn.Write(frame)
	bufpool.Put(frame)
	if werr != nil {
		return nil, 0, 0, fmt.Errorf("%w: send to %s: %v", ErrTimeout, to, werr)
	}
	rbuf, err := readFrame(conn)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: reply from %s: %v", ErrTimeout, to, err)
	}
	dst, _ := ctx.Value(replyBufferKey{}).([]byte)
	msg, errStr, derr := wire.DecodeReplyInto(rbuf, dst)
	bufpool.Put(rbuf)
	if derr != nil {
		return nil, 0, 0, fmt.Errorf("transport: reply from %s: %w", to, derr)
	}
	reusable = true
	if errStr != "" {
		return nil, 0, 0, fmt.Errorf("transport: remote %s: %s", to, errStr)
	}
	return msg, 0, 0, nil
}

// checkOut returns a connection to peer for one call, its deadline set from
// ctx: the most recently used idle one that passes connAlive, else a new
// one. An expired ctx fails here, before it can make healthy pooled
// connections look dead.
func (n *TCPNode) checkOut(ctx context.Context, to wire.NodeID) (*countingConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = now.Add(defaultCallTimeout)
	} else if !deadline.After(now) {
		return nil, context.DeadlineExceeded
	}
	for {
		c := n.takeIdle(to, now)
		if c == nil {
			break
		}
		c.SetDeadline(deadline)
		if connAlive(c.Conn) {
			return c, nil
		}
		c.Close()
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, err
	}
	raw.SetDeadline(deadline)
	return &countingConn{Conn: raw}, nil
}

// takeIdle pops the newest idle connection to peer, after closing every one
// that has been idle for clientIdleLife. Taking the newest lets the surplus
// left by a burst age out at the bottom of the stack.
func (n *TCPNode) takeIdle(to wire.NodeID, now time.Time) *countingConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.idle[to]
	if len(s) == 0 {
		return nil
	}
	k := 0
	for k < len(s) && now.Sub(s[k].since) >= clientIdleLife {
		s[k].c.Close()
		k++
	}
	s = slices.Delete(s, 0, k)
	var c *countingConn
	if last := len(s) - 1; last >= 0 {
		c = s[last].c
		s = slices.Delete(s, last, last+1)
	}
	n.idle[to] = s // kept when empty: checkIn appends into its capacity
	return c
}

// checkIn returns a connection to the pool after a complete reply, or
// closes it when the pool is full or the node closed meanwhile.
func (n *TCPNode) checkIn(to wire.NodeID, c *countingConn) {
	n.mu.Lock()
	s := n.idle[to]
	keep := !n.closed.Load() && len(s) < maxIdlePerPeer
	if keep {
		n.idle[to] = append(s, idleConn{c, time.Now()})
	}
	n.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// Multicast implements Endpoint via UDP fan-out to the known peers. The
// datagram is an unprefixed envelope body.
func (n *TCPNode) Multicast(msg any) {
	if n.closed.Load() {
		return
	}
	sz, ok := wire.EnvelopeSize(n.id, msg)
	if !ok || sz > 64<<10 {
		return // not encodable, or would not fit a datagram
	}
	buf := bufpool.Get(sz)[:0]
	buf, err := wire.AppendEnvelope(buf, n.id, 0, 0, msg)
	if err != nil {
		bufpool.Put(buf)
		return
	}
	n.mu.Lock()
	addrs := n.peerAddrs
	n.mu.Unlock()
	sent := 0
	for _, addr := range addrs {
		if _, err := n.udp.WriteToUDP(buf, addr); err == nil {
			sent += len(buf)
		}
	}
	bufpool.Put(buf)
	if n.cli != nil {
		n.cli.ObserveCast(msg, sent)
	}
}

// WarmRPC pre-registers the RPC metric families for the given message
// values so a freshly started daemon's /metrics already lists them at zero.
func (n *TCPNode) WarmRPC(msgs ...any) {
	n.cli.Warm(msgs...)
	n.srv.Warm(msgs...)
}

// AddPeer adds an address to the multicast peer set, resolving it once. An
// address that does not resolve is tried again the next time it is added.
func (n *TCPNode) AddPeer(addr string) {
	if addr == "" || addr == string(n.id) {
		return
	}
	n.mu.Lock()
	_, known := n.peers[addr]
	n.mu.Unlock()
	if known {
		return
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return
	}
	n.mu.Lock()
	if _, known := n.peers[addr]; !known {
		n.peers[addr] = struct{}{}
		n.peerAddrs = append(n.peerAddrs, uaddr)
	}
	n.mu.Unlock()
}

// Close implements Endpoint. It closes the listeners, every idle pooled
// connection and every accepted connection, so peers holding idle
// connections to this node see end of file at once, and returns when the
// node's goroutines have exited; one that is inside a handler exits when
// the handler returns.
func (n *TCPNode) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	n.ln.Close()
	n.udp.Close()
	n.mu.Lock()
	for _, s := range n.idle {
		for _, ic := range s {
			ic.c.Close()
		}
	}
	n.idle = nil
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed.Load() {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serve(conn)
	}
}

// serve answers the requests arriving on one accepted connection, one at a
// time, until the peer closes it, the node closes, or a turn leaves the
// caller without a complete reply. A handler error is not such a turn: it
// travels in a reply like any result.
func (n *TCPNode) serve(raw net.Conn) {
	defer n.wg.Done()
	conn := &countingConn{Conn: raw}
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, raw)
		n.mu.Unlock()
	}()
	var learned wire.NodeID // the sender already in the peer set
	for {
		conn.SetDeadline(time.Now().Add(serverIdleTimeout))
		wr0, rd0 := conn.wr, conn.rd
		fbuf, err := readFrame(conn)
		if err != nil {
			return
		}
		// req's payloads alias fbuf until the turn ends.
		from, trace, span, req, err := wire.DecodeEnvelopeView(fbuf)
		if err != nil || n.closed.Load() {
			bufpool.Put(fbuf)
			return
		}
		if from != learned {
			n.AddPeer(string(from))
			learned = from
		}
		ctx := context.Background()
		var sp *obs.Span
		if trace != 0 {
			ctx = obs.ContextWith(ctx, obs.SpanContext{TraceID: trace, SpanID: span})
			ctx, sp = n.obs.Tr().Start(ctx, string(n.id), "serve:"+obs.MsgTypeName(req))
		}
		start := time.Now()
		resp, herr := n.handler.HandleCall(ctx, from, req)
		sp.SetError(herr)
		sp.End()
		errStr := ""
		if herr != nil {
			errStr = herr.Error()
		}
		if resp != nil && !wire.Encodable(resp) {
			errStr = fmt.Sprintf("transport: unencodable response %T", resp)
			resp = nil
		}
		sz, _ := wire.ReplySize(resp, errStr)
		if sz > maxFrame {
			resp, errStr = nil, "transport: oversized response"
			sz, _ = wire.ReplySize(resp, errStr)
		}
		rbuf := bufpool.Get(4 + sz)[:4]
		binary.BigEndian.PutUint32(rbuf, uint32(sz))
		rbuf, err = wire.AppendReply(rbuf, resp, errStr)
		if err == nil {
			_, err = conn.Write(rbuf)
		}
		bufpool.Put(rbuf)
		n.srv.Observe(req, int(conn.wr-wr0), int(conn.rd-rd0), time.Since(start), herr)
		bufpool.Put(fbuf)
		if err != nil {
			return
		}
	}
}

func (n *TCPNode) udpLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		sz, _, err := n.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		from, _, _, msg, err := wire.DecodeEnvelope(buf[:sz])
		if err != nil {
			continue
		}
		n.AddPeer(string(from))
		n.handler.HandleCast(from, msg)
	}
}

// TCPNetwork adapts ListenTCP to the Network interface so provider/client
// constructors can run unchanged over real sockets. Join's id must be the
// node's advertised host:port; bind defaults to the same address.
type TCPNetwork struct {
	// Bind optionally overrides the listen address (e.g. ":0" behind NAT).
	Bind string
	// Seeds are the initial multicast peers for every joined node.
	Seeds []string
	// Obs, when set, instruments every joined node (see ListenTCPObs).
	Obs *obs.Obs
}

// Join implements Network.
func (t *TCPNetwork) Join(id wire.NodeID, h Handler) (Endpoint, error) {
	bind := t.Bind
	if bind == "" {
		bind = string(id)
	}
	advertise := string(id)
	// A ":0" id means "pick a port": let ListenTCP advertise the resolved
	// address instead of the unusable port-zero one.
	if _, port, err := net.SplitHostPort(advertise); err == nil && port == "0" {
		advertise = ""
	}
	return ListenTCPObs(bind, advertise, t.Seeds, h, t.Obs)
}

// JoinAt implements Network; co-location has no special meaning over real
// sockets, so it behaves like Join.
func (t *TCPNetwork) JoinAt(id, _ wire.NodeID, h Handler) (Endpoint, error) {
	return t.Join(id, h)
}
