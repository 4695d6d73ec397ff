package provider

// White-box table test of pull, the one sink of background bytes: three
// providers on one fabric, and every RPC the puller sends recorded in order.

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// spyEndpoint records the type and destination of every call its owner sends.
// A call recorded as holdOn announces itself on entered and waits for hold.
// With flip set, the first byte of every whole version fetched is flipped on
// its way in, after the source verified it.
type spyEndpoint struct {
	transport.Endpoint
	mu      sync.Mutex
	calls   []string
	holdOn  string
	entered chan struct{}
	hold    chan struct{}
	flip    bool
}

func (s *spyEndpoint) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	call := obs.MsgTypeName(req) + "→" + string(to)
	s.mu.Lock()
	s.calls = append(s.calls, call)
	s.mu.Unlock()
	if call == s.holdOn {
		s.entered <- struct{}{}
		<-s.hold
	}
	resp, err := s.Endpoint.Call(ctx, to, req)
	if f, ok := resp.(wire.SegFetchResp); ok && s.flip && len(f.Data) > 0 {
		f.Data = append([]byte(nil), f.Data...) // it may alias the source's store
		f.Data[0] ^= 1
		resp = f
	}
	return resp, err
}

type pullRig struct {
	src, alt, puller *Provider
	spy              *spyEndpoint
	reg              *obs.Registry
	seg              ids.SegID
}

func newPullRig(t *testing.T) *pullRig {
	t.Helper()
	clock := simtime.NewClock(0.001)
	fabric := simnet.New(clock, simnet.Config{})
	o := obs.New(clock)
	r := &pullRig{reg: o.Reg(), seg: ids.New()}
	mk := func(id wire.NodeID) *Provider {
		p, err := New(id, clock, Config{Seed: 1, Obs: o}, fabric, disk.New(clock, string(id), disk.SCSI10K(), 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Kill)
		return p
	}
	r.src, r.alt, r.puller = mk("src"), mk("alt"), mk("puller")
	r.spy = &spyEndpoint{Endpoint: r.puller.ep}
	r.puller.ep = r.spy
	for _, id := range []wire.NodeID{"src", "alt"} {
		r.puller.members.ObserveHeartbeat(wire.Heartbeat{From: id, Seq: 1})
	}
	return r
}

// commit advances seg on p by one version through a shadow session, so the
// store keeps the change record a delta is served from.
func (r *pullRig) commit(t *testing.T, p *Provider, off int64, data []byte) {
	t.Helper()
	base := p.store.Stat(r.seg).Version
	if _, _, err := p.store.Shadow("w", r.seg, base, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.store.WriteShadow("w", r.seg, off, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.store.Prepare("w", r.seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.store.CommitPrepared("w", r.seg); err != nil {
		t.Fatal(err)
	}
}

func (r *pullRig) install(t *testing.T, p *Provider, ver uint64, data []byte) {
	t.Helper()
	if err := p.store.Install(r.seg, ver, data, nil, 2, 0); err != nil {
		t.Fatal(err)
	}
}

// count reads sorrento_transfer_total{node,reason,outcome}.
func (r *pullRig) count(node, reason, outcome string) int64 {
	return r.reg.Counter("sorrento_transfer_total", obs.L("node", node), obs.L("reason", reason), obs.L("outcome", outcome)).Value()
}

func TestPull(t *testing.T) {
	v1 := bytes.Repeat([]byte("one."), 4<<10)
	v2 := append(append([]byte(nil), v1...), "two"...)
	home := func(r *pullRig) string { return string(r.puller.homeOf(r.seg)) }

	rows := []struct {
		name   string
		setup  func(t *testing.T, r *pullRig) transfer
		ok     bool
		counts map[string]int64 // outcome → count under the transfer's reason
		calls  func(r *pullRig) []string
		holds  []byte // what the puller's store serves afterwards
	}{
		{
			name: "stale with a base takes the delta",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.src, 1, v1)
				r.install(t, r.puller, 1, v1)
				r.commit(t, r.src, int64(len(v1)), []byte("two"))
				return transfer{seg: r.seg, want: 2, source: "src", reason: reasonSync}
			},
			ok: true, counts: map[string]int64{"delta": 1}, holds: v2,
			calls: func(r *pullRig) []string { return []string{"SegFetch→src", "LocUpdate→" + home(r)} },
		},
		{
			name: "no base takes the whole version",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.src, 2, v2)
				return transfer{seg: r.seg, want: 2, source: "src", replDeg: 2, reason: reasonReplicate}
			},
			ok: true, counts: map[string]int64{"full": 1}, holds: v2,
			calls: func(r *pullRig) []string { return []string{"SegFetch→src", "LocUpdate→" + home(r)} },
		},
		{
			name: "source dead between notify and fetch rotates to the other owner",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.src, 2, v2)
				r.install(t, r.alt, 2, v2)
				for _, o := range []wire.NodeID{"src", "alt"} {
					r.puller.table.Update(o, wire.LocEntry{Seg: r.seg, Version: 2, Size: int64(len(v2)), ReplDeg: 2}, false)
				}
				r.src.Kill()
				return transfer{seg: r.seg, want: 2, source: "src", replDeg: 2, reason: reasonReplicate}
			},
			ok: true, counts: map[string]int64{"retry": 1, "full": 1}, holds: v2,
			calls: func(r *pullRig) []string {
				return []string{"SegFetch→src", "SegFetch→alt", "LocUpdate→" + home(r)}
			},
		},
		{
			// The source verifies a whole version before it leaves and
			// refuses to send it.
			name: "payload rotten at the source is rejected, never installed",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.puller, 1, v1)
				r.install(t, r.src, 2, v2) // no change record: a delta request is answered in full
				if !r.src.store.Corrupt(r.seg) {
					t.Fatal("could not corrupt the source's copy")
				}
				return transfer{seg: r.seg, want: 2, source: "src", reason: reasonSync}
			},
			ok: false, counts: map[string]int64{"retry": maxPullAttempts - 1, "fail": 1}, holds: v1,
			calls: func(r *pullRig) []string {
				return []string{"SegFetch→src", "SegFetch→src", "SegFetch→src"}
			},
		},
		{
			name: "payload rotten on the way is rejected by the receiver",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.puller, 1, v1)
				r.install(t, r.src, 2, v2)
				r.spy.flip = true
				return transfer{seg: r.seg, want: 2, source: "src", reason: reasonSync}
			},
			ok: false, counts: map[string]int64{"reject": maxPullAttempts, "retry": maxPullAttempts - 1, "fail": 1}, holds: v1,
			calls: func(r *pullRig) []string {
				return []string{"SegFetch→src", "SegFetch→src", "SegFetch→src"}
			},
		},
		{
			name: "already current re-announces and fetches nothing",
			setup: func(t *testing.T, r *pullRig) transfer {
				r.install(t, r.puller, 2, v2)
				return transfer{seg: r.seg, want: 2, source: "src", reason: reasonSync}
			},
			ok: true, counts: map[string]int64{}, holds: v2,
			calls: func(r *pullRig) []string { return []string{"LocUpdate→" + home(r)} },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newPullRig(t)
			tr := row.setup(t, r)
			if g := r.puller.pull(tr); g.OK != row.ok {
				t.Fatalf("pull answered OK=%v (%s), want OK=%v", g.OK, g.Err, row.ok)
			}
			for _, outcome := range []string{"delta", "full", "retry", "reject", "fail", "handoff"} {
				if got := r.count("puller", tr.reason, outcome); got != row.counts[outcome] {
					t.Errorf("sorrento_transfer_total{reason=%s,outcome=%s} = %d, want %d", tr.reason, outcome, got, row.counts[outcome])
				}
			}
			if want := row.calls(r); !reflect.DeepEqual(r.spy.calls, want) {
				t.Errorf("the puller sent %v, want %v", r.spy.calls, want)
			}
			got, _, err := r.puller.store.Read(r.seg, 0, 0, int64(len(v2))+1)
			if err != nil || !bytes.Equal(got, row.holds) {
				t.Errorf("the puller serves %d bytes (err %v), want the %d of the expected version", len(got), err, len(row.holds))
			}
			// The sums kept are the source's, and a scrub reads the copy clean.
			if f, err := r.puller.store.Fetch(r.seg, 0, 0); err != nil || !reflect.DeepEqual(f.Sums, wire.SumsOf(row.holds)) {
				t.Errorf("the puller's sums differ from the source's (err %v)", err)
			}
			if _, dropped, _ := r.puller.store.ScrubSegment(r.seg); dropped != 0 {
				t.Errorf("a scrub dropped %d versions of the pulled copy", dropped)
			}
		})
	}
}

// TestHandoffRefusedWhilePullInFlight: a hand-off that coalesces with a pull
// already under way has seen nothing installed, so it must not get the OK
// that lets the source erase.
func TestHandoffRefusedWhilePullInFlight(t *testing.T) {
	r := newPullRig(t)
	data := []byte("the only clean copy")
	r.install(t, r.src, 1, data)
	r.spy.holdOn, r.spy.entered, r.spy.hold = "SegFetch→src", make(chan struct{}), make(chan struct{})
	done := make(chan wire.GenericResp)
	go func() {
		done <- r.puller.pull(transfer{seg: r.seg, want: 1, source: "src", reason: reasonReplicate})
	}()
	<-r.spy.entered // the first pull sits in its fetch

	if err := r.src.handOff(r.seg, "puller", reasonDrain); err == nil {
		t.Fatal("hand-off acknowledged while the destination had installed nothing")
	}
	if got, _, err := r.src.store.Read(r.seg, 0, 0, 100); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("source no longer serves its copy after a refused hand-off: %q, %v", got, err)
	}
	drain := func(outcome string) int64 { return r.count("src", reasonDrain, outcome) }
	if drain("fail") != 1 || drain("handoff") != 0 {
		t.Errorf("source counted fail=%d handoff=%d, want 1 and 0", drain("fail"), drain("handoff"))
	}

	close(r.spy.hold)
	if g := <-done; !g.OK {
		t.Fatalf("the first pull failed: %s", g.Err)
	}
	// With the copy in place the same hand-off goes through.
	if err := r.src.handOff(r.seg, "puller", reasonDrain); err != nil {
		t.Fatalf("hand-off to a destination holding the version: %v", err)
	}
	if r.src.store.Stat(r.seg).Present || drain("handoff") != 1 {
		t.Errorf("after the hand-off the source still holds the segment (handoff=%d)", drain("handoff"))
	}
}
