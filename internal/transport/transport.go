// Package transport defines how Sorrento nodes talk to each other: a
// request/response Call primitive plus the multicast channel used for
// heartbeats and the backup location scheme. Two implementations exist —
// the simulated fabric in internal/simnet (cost-charged, in-process, used by
// tests and the benchmark harness) and the TCP/UDP transport in this package
// (used by the cmd/ daemons). Protocol code is written against these
// interfaces only.
package transport

import (
	"context"
	"errors"

	"repro/internal/wire"
)

// Common transport errors.
var (
	// ErrTimeout reports that the destination did not answer in time —
	// typically because the node is down.
	ErrTimeout = errors.New("transport: request timed out")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrNoHandler reports a message the receiver does not understand.
	ErrNoHandler = errors.New("transport: no handler for message")
)

// Handler receives traffic addressed to an endpoint.
type Handler interface {
	// HandleCall services a request and returns the response. from is the
	// host node the request originated on (co-located clients report their
	// host provider, which is what locality-driven migration needs).
	//
	// A request's []byte fields are lent, on every transport: on the
	// simulated fabric they alias the sender's memory, and over TCP they
	// alias the pooled frame the request arrived in, which is reused once
	// HandleCall has returned and its reply is written. A handler must not
	// modify them, and must copy whatever it keeps past its return,
	// including into anything it starts that outlives the call. The
	// response may alias the request: it is encoded before the frame is
	// reused.
	HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error)
	// HandleCast receives a multicast message. It must not block for long;
	// implementations fan out to goroutines for slow work.
	HandleCast(from wire.NodeID, msg any)
}

// CallFunc adapts a function to a call-only Handler.
type CallFunc func(ctx context.Context, from wire.NodeID, req any) (any, error)

// HandleCall implements Handler.
func (f CallFunc) HandleCall(ctx context.Context, from wire.NodeID, req any) (any, error) {
	return f(ctx, from, req)
}

// HandleCast implements Handler by dropping the message.
func (f CallFunc) HandleCast(wire.NodeID, any) {}

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns this endpoint's own node ID.
	ID() wire.NodeID
	// Host returns the physical node this endpoint lives on. For provider
	// and namespace endpoints Host == ID; for co-located client endpoints
	// Host is the provider node whose NIC they share.
	Host() wire.NodeID
	// Call sends req to the node named to and waits for its response.
	Call(ctx context.Context, to wire.NodeID, req any) (any, error)
	// Multicast sends msg to every endpoint on the multicast channel
	// (including providers only; see Network implementations). Delivery is
	// best-effort and asynchronous.
	Multicast(msg any)
	// Close detaches the endpoint; subsequent calls to it time out.
	Close() error
}

// Network creates endpoints.
type Network interface {
	// Join attaches a new endpoint with its own network interface.
	Join(id wire.NodeID, h Handler) (Endpoint, error)
	// JoinAt attaches an endpoint co-located with (sharing the NIC of) an
	// existing host endpoint. Calls between co-located endpoints are local
	// and free. Implementations without a cost model may treat it as Join.
	JoinAt(id, host wire.NodeID, h Handler) (Endpoint, error)
}
