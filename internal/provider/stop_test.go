package provider

// White-box test (the cluster harness sits above this package): Stop against
// handlers that keep spawning work.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestStopUnderLocationStorm stops a provider while LocUpdate and LocProbe
// handlers keep arriving — Stop leaves the endpoint open — and each of them
// starts a goroutine Stop has to wait for. Adding to the WaitGroup while Stop
// waits on it panicked ("WaitGroup is reused before previous Wait has
// returned"); run with -race -count=50.
func TestStopUnderLocationStorm(t *testing.T) {
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	p, err := New("p0", clock, Config{Seed: 1}, fabric, disk.New(clock, "p0", disk.SCSI10K(), 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)

	// Peers "a" and "b" hold a segment p0 is home host of, "b" always one
	// version behind, so every LocUpdate makes propagateSeg spawn a SyncNotify
	// to "b"; p0 holds a segment of its own, so every LocProbe spawns a reply.
	spawned := make(chan struct{}, 1)
	peer := transport.CallFunc(func(_ context.Context, _ wire.NodeID, req any) (any, error) {
		if _, ok := req.(wire.SyncNotify); ok {
			select {
			case spawned <- struct{}{}:
			default:
			}
		}
		return wire.GenericResp{OK: true}, nil
	})
	for _, id := range []wire.NodeID{"a", "b"} {
		if _, err := fabric.Join(id, peer); err != nil {
			t.Fatal(err)
		}
		p.members.ObserveHeartbeat(wire.Heartbeat{From: id, Seq: 1})
	}
	remote, local := ids.New(), ids.New()
	if err := p.store.Install(local, 1, []byte("x"), nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	p.Start()

	h := (*handler)(p)
	done := make(chan struct{})
	var storm sync.WaitGroup
	for g := 0; g < 4; g++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for ver := uint64(2); ; ver++ {
				select {
				case <-done:
					return
				default:
				}
				h.HandleCall(context.Background(), "b", wire.LocUpdate{From: "b", Entry: wire.LocEntry{Seg: remote, Version: ver - 1}})
				h.HandleCall(context.Background(), "a", wire.LocUpdate{From: "a", Entry: wire.LocEntry{Seg: remote, Version: ver}})
				h.HandleCast("a", wire.LocProbe{Seg: local, Asker: "a", Nonce: ver})
			}
		}()
	}
	<-spawned // the storm demonstrably spawns
	p.Stop()
	if p.spawn(func() {}) {
		t.Error("spawn accepted work after Stop returned")
	}
	close(done)
	storm.Wait()
}
