package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/membership"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/proxy"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Host deployment constants. Every modeled cost is off so wall time is the
// Go code's own cost; README.md gives the reason for each value.
const (
	hostProviders = 4
	hostReplDeg   = 2
	// One closed-loop client. The deployment's seven nodes share the
	// sandbox's two cores with it; a second client left no core for the
	// kernel's loopback work, requests then waited a scheduler tick (4 ms)
	// for it in trains, and whether a run met such trains decided its tail
	// and its read rate (1190 or 1450 MB/s on bulk-host, same code).
	hostClients = 1

	hostHeartbeat     = 200 * time.Millisecond
	hostFailureFactor = 25 // 5 s of silence: a GC pause cannot evict a provider
	hostJoinDelayMax  = 500 * time.Millisecond
	hostRepairEvery   = time.Second
	hostRepairBatch   = 16
	hostDiskCapacity  = 8 << 30
)

// hostOpts selects what a host deployment carries beyond ns + providers.
type hostOpts struct {
	clients int     // full-protocol clients (core.Client)
	thin    int     // thin clients; > 0 also starts one proxy
	tracer  *tracer // nil = untraced: nodes join the raw TCP network
}

// hostDeploy is one namespace server, hostProviders providers and the
// requested clients on loopback TCP/UDP, all in this process at
// simtime.Real(), assembled as cmd/namespaced, cmd/sorrentod and
// cmd/sorrento-proxy assemble theirs.
type hostDeploy struct {
	clock     *simtime.Clock
	obs       *obs.Obs // registry only, traced runs only
	nsAddr    string
	nsNode    transport.Endpoint
	provAddrs []string
	providers []*provider.Provider
	clients   []*core.Client
	proxy     *proxy.Proxy
	thin      []*proxy.ThinClient
	thinAddrs []string
}

type nsHandler struct{ s *namespace.Server }

func (h nsHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	return h.s.Handle(req)
}
func (h nsHandler) HandleCast(wire.NodeID, any) {}

// freeAddr reserves a loopback port by listening and closing; the node that
// gets the address binds it a moment later.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func hostMembership() membership.Config {
	return membership.Config{HeartbeatInterval: hostHeartbeat, FailureFactor: hostFailureFactor}
}

func hostDiskModel() disk.Model {
	// A zero TransferRate makes callers substitute SCSI10K, so "free" is a
	// rate no request can notice.
	return disk.Model{TransferRate: 1e15}
}

// newHost brings a deployment up and returns once every provider and client
// sees all providers.
func newHost(o hostOpts) (d *hostDeploy, err error) {
	d = &hostDeploy{clock: simtime.Real()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if o.tracer != nil {
		// Registry without a tracer: the transport then forwards the span
		// context the benchmark put into ctx instead of opening its own
		// spans, so serve spans parent on the benchmark's call spans.
		d.obs = &obs.Obs{Registry: obs.NewRegistry()}
	}
	addrs := make([]string, 1+hostProviders)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return d, err
		}
	}
	d.nsAddr, d.provAddrs = addrs[0], addrs[1:]
	// join is the network a node listening on bind joins through: seeded
	// with the providers for heartbeat fan-out, decorated when tracing.
	join := func(bind string, seeds []string) transport.Network {
		var n transport.Network = &transport.TCPNetwork{Bind: bind, Seeds: seeds, Obs: d.obs}
		if o.tracer != nil {
			n = o.tracer.network(n)
		}
		return n
	}
	network := func(bind string) transport.Network { return join(bind, d.provAddrs) }

	// OpCost 1ns: the zero value means the paper's 770 µs of modeled sleep
	// per namespace op, even at Scale 1. MemWAL: no fsync (stated flush
	// policy; the segment store is RAM-resident anyway).
	nsSrv, err := namespace.NewServer(d.clock, namespace.Config{OpCost: time.Nanosecond}, &namespace.MemWAL{})
	if err != nil {
		return d, err
	}
	if d.nsNode, err = network(d.nsAddr).Join(wire.NodeID(d.nsAddr), nsHandler{nsSrv}); err != nil {
		return d, err
	}

	pcfg := provider.DefaultConfig()
	pcfg.OpCost = provider.NoOpCost
	pcfg.Membership = hostMembership()
	pcfg.JoinDelayMax = hostJoinDelayMax
	pcfg.RepairInterval = hostRepairEvery
	pcfg.RepairBatch = hostRepairBatch
	pcfg.Obs = d.obs
	for _, addr := range d.provAddrs {
		dk := disk.New(d.clock, addr, hostDiskModel(), hostDiskCapacity)
		p, perr := provider.New(wire.NodeID(addr), d.clock, pcfg, network(addr), dk)
		if perr != nil {
			return d, perr
		}
		p.Start()
		d.providers = append(d.providers, p)
	}

	ccfg := core.Config{Namespace: wire.NodeID(d.nsAddr), Membership: hostMembership(), Obs: d.obs}
	for i := 0; i < o.clients; i++ {
		addr, aerr := freeAddr()
		if aerr != nil {
			return d, aerr
		}
		cl, cerr := core.NewClient(addr, d.clock, network(addr), ccfg)
		if cerr != nil {
			return d, cerr
		}
		d.clients = append(d.clients, cl)
	}
	if o.thin > 0 {
		addr, aerr := freeAddr()
		if aerr != nil {
			return d, aerr
		}
		d.proxy, err = proxy.New(addr, d.clock, network(addr), proxy.Config{Client: ccfg})
		if err != nil {
			return d, err
		}
		for i := 0; i < o.thin; i++ {
			taddr, terr := freeAddr()
			if terr != nil {
				return d, terr
			}
			// Thin clients take no part in membership: no seeds.
			tc, derr := proxy.Dial(d.clock, join(taddr, nil), taddr, d.proxy.ID())
			if derr != nil {
				return d, derr
			}
			d.thin = append(d.thin, tc)
			d.thinAddrs = append(d.thinAddrs, taddr)
		}
	}
	return d, d.awaitStable(10 * time.Second)
}

// awaitStable waits until every provider and full-protocol client sees all
// providers.
func (d *hostDeploy) awaitStable(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, p := range d.providers {
			ok = ok && p.Members().Len() >= hostProviders
		}
		for _, c := range d.fullClients() {
			ok = ok && c.Members().Len() >= hostProviders
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("host deployment not stable at %d providers within %v", hostProviders, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *hostDeploy) fullClients() []*core.Client {
	cs := append([]*core.Client(nil), d.clients...)
	if d.proxy != nil {
		cs = append(cs, d.proxy.Client())
	}
	return cs
}

// close stops every node and waits for their goroutines.
func (d *hostDeploy) close() {
	for _, t := range d.thin {
		t.Close()
	}
	if d.proxy != nil {
		d.proxy.Close()
	}
	for _, c := range d.clients {
		c.Close()
	}
	for _, p := range d.providers {
		p.Kill()
	}
	if d.nsNode != nil {
		d.nsNode.Close()
	}
}

// closeAfterRun is close for a deployment that has carried load, when the
// measurement is over: it waits a second at most. A provider's Stop waits
// for its background pulls, and after twenty seconds of small-file churn
// those are retrying, with backoff, segments whose files are long gone —
// 8 s of waiting that would be paid on every one of the driver's runs. The
// close goes on in the background; nothing is measured after it.
func (d *hostDeploy) closeAfterRun() {
	done := make(chan struct{})
	go func() {
		d.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
	}
}

// storedBytes sums the committed bytes the providers hold.
func (d *hostDeploy) storedBytes() int64 {
	var n int64
	for _, p := range d.providers {
		n += p.Store().Disk().Used()
	}
	return n
}

// roles tells the analysis which layer each node's serve time belongs to.
func (d *hostDeploy) roles(t *tracer) map[uint16]role {
	r := map[uint16]role{t.intern(d.nsAddr): roleNamespace}
	for _, a := range d.provAddrs {
		r[t.intern(a)] = roleProvider
	}
	if d.proxy != nil {
		r[t.intern(string(d.proxy.ID()))] = roleProxy
	}
	return r
}

// newHostWithDirs is newHost with hostClients full-protocol clients, each
// with its own directory /c<i> made.
func newHostWithDirs(tr *tracer) (*hostDeploy, error) {
	d, err := newHost(hostOpts{clients: hostClients, tracer: tr})
	if err != nil {
		return nil, err
	}
	for i, cl := range d.clients {
		if err := cl.Mkdir(clientDir(i)); err != nil {
			d.close()
			return nil, fmt.Errorf("mkdir %s: %w", clientDir(i), err)
		}
	}
	return d, nil
}

func clientDir(i int) string { return fmt.Sprintf("/c%d", i) }
