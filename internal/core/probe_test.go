package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// castFunc adapts a function to a cast-only transport.Handler.
type castFunc func(msg any)

func (f castFunc) HandleCall(context.Context, wire.NodeID, any) (any, error) {
	return nil, transport.ErrNoHandler
}
func (f castFunc) HandleCast(_ wire.NodeID, msg any) { f(msg) }

// TestProbeWaitsForACurrentOwner: two owners answer a probe, the stale one
// (v1) always first. A caller that needs v2 must get both; a caller that asks
// for any version returns on the first answer; and when nobody is current the
// probe gives what it collected at the timeout instead of failing.
func TestProbeWaitsForACurrentOwner(t *testing.T) {
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	cl, err := NewClient("c", clock, fabric, Config{Namespace: "ns"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var answers sync.WaitGroup
	defer answers.Wait()
	gate := make(chan struct{}) // "new" answers only once this is closed
	var stale, current transport.Endpoint
	answer := func(ep transport.Endpoint, m wire.LocProbe, ver uint64) {
		ep.Call(context.Background(), m.Asker, wire.LocProbeResp{Seg: m.Seg, Nonce: m.Nonce, Owner: ep.ID(), Version: ver})
	}
	stale, err = fabric.Join("old", castFunc(func(msg any) {
		if m, ok := msg.(wire.LocProbe); ok {
			answers.Add(1)
			go func() {
				defer answers.Done()
				answer(stale, m, 1)
				<-gate
				answer(current, m, 2)
			}()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if current, err = fabric.Join("new", castFunc(func(any) {})); err != nil {
		t.Fatal(err)
	}

	seg := ids.New()
	old, both := []wire.OwnerInfo{{Node: "old", Version: 1}}, []wire.OwnerInfo{{Node: "old", Version: 1}, {Node: "new", Version: 2}}

	// Any version will do: the first answer ends the probe while "new" is
	// still silent.
	if got, err := cl.probe(seg, 0); err != nil || !reflect.DeepEqual(got, old) {
		t.Errorf("probe(seg, 0) = %v, %v; want %v after the first answer", got, err, old)
	}
	close(gate)
	// v2 wanted: the stale answer is kept, and the probe listens on.
	if got, err := cl.probe(seg, 2); err != nil || !reflect.DeepEqual(got, both) {
		t.Errorf("probe(seg, 2) = %v, %v; want %v", got, err, both)
	}
	// Nobody has v3: one ProbeTimeout, then everything that answered.
	if got, err := cl.probe(seg, 3); err != nil || !reflect.DeepEqual(got, both) {
		t.Errorf("probe(seg, 3) = %v, %v; want %v at the timeout", got, err, both)
	}
}
