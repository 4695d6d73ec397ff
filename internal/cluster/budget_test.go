package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rpcLog is a transport.Network decorator that records, in order, the
// request type of every Call made through the endpoints it hands out.
type rpcLog struct {
	transport.Network
	mu    sync.Mutex
	calls []string
}

func (l *rpcLog) Join(id wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := l.Network.Join(id, h)
	return rpcLogEndpoint{ep, l}, err
}

func (l *rpcLog) JoinAt(id, host wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := l.Network.JoinAt(id, host, h)
	return rpcLogEndpoint{ep, l}, err
}

// take returns the calls recorded since the last take.
func (l *rpcLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

type rpcLogEndpoint struct {
	transport.Endpoint
	log *rpcLog
}

func (e rpcLogEndpoint) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	e.log.mu.Lock()
	e.log.calls = append(e.log.calls, strings.TrimPrefix(fmt.Sprintf("%T", req), "wire."))
	e.log.mu.Unlock()
	return e.Endpoint.Call(ctx, to, req)
}

// loggedClient attaches a client on host whose every RPC is recorded.
func loggedClient(t *testing.T, c *Cluster, name string, host wire.NodeID) (*core.Client, *rpcLog) {
	t.Helper()
	log := &rpcLog{Network: c.Fabric}
	cl, err := core.NewClient(name, c.Clock, log, core.Config{
		Namespace:  NamespaceNode,
		Host:       host,
		Sizing:     c.opts.Sizing,
		Membership: c.opts.Provider.Membership,
		ShadowTTL:  c.Clock.Modeled(5 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.WaitForProviders(c.opts.Providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return cl, log
}

func wantCalls(t *testing.T, phase string, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s: RPCs %v, want %v", phase, got, want)
	}
}

// TestSmallFileSessionRoundBudget pins the RPC sequence of every phase of
// the paper's Fig 9 session on a 12 KiB attached file — each RPC is one
// serial round — for an index segment placed on its home host and for one
// placed elsewhere. The client runs on p00 with the local placement policy,
// so the index always lands on p00 and the file's ID decides which case it
// is.
func TestSmallFileSessionRoundBudget(t *testing.T) {
	c := testCluster(t, 2)
	cl, log := loggedClient(t, c, "budget", ProviderID(0))
	payload := make([]byte, 12<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	attrs := wire.DefaultAttrs()
	attrs.Policy = wire.PlaceLocal

	seen := map[bool]bool{}
	for i := 0; i < 64 && len(seen) < 2; i++ {
		path := fmt.Sprintf("/f%d", i)
		log.take()
		f, err := cl.Create(path, attrs)
		if err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "create", log.take(), "NSCreate")

		atHome := cl.Members().HomeOf(c.NS.Lookup(path).Entry.FileID) == ProviderID(0)
		if seen[atHome] {
			f.Drop()
			continue
		}
		seen[atHome] = true
		fetch := []string{"SegFetch"}
		if !atHome {
			fetch = []string{"SegFetch", "SegFetch"} // home host redirects to the owner
		}

		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "commit", log.take(), "NSCommitBegin", "SegShadow", "Commit2PC", "NSCommitComplete")
		if !c.Provider(ProviderID(0)).Store().Stat(c.NS.Lookup(path).Entry.FileID).Present {
			t.Fatalf("%s: index segment not on p00", path)
		}

		g, err := cl.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		g.Close()
		if string(buf) != string(payload) {
			t.Fatalf("%s: read back other bytes than written", path)
		}
		wantCalls(t, fmt.Sprintf("read (index at home: %v)", atHome), log.take(), append([]string{"NSLookup"}, fetch...)...)

		if err := cl.Remove(path); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, fmt.Sprintf("unlink (index at home: %v)", atHome), log.take(),
			append(append([]string{"NSRemove"}, fetch...), "SegDelete")...)
	}
	if len(seen) < 2 {
		t.Fatalf("64 files never produced both placements: %v", seen)
	}

	// A missing path costs one round and says so.
	log.take()
	if err := cl.Remove("/nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("remove of a missing path: %v, want ErrNotFound", err)
	}
	wantCalls(t, "unlink (missing)", log.take(), "NSRemove")
}

// TestUnlinkDeletesReplicasOneAtATime: with R replicas the unlink is
// NSRemove, one fetch (either provider holds the index), R deletes.
func TestUnlinkDeletesReplicasOneAtATime(t *testing.T) {
	c := testCluster(t, 2)
	cl, log := loggedClient(t, c, "budget", "")
	attrs := wire.DefaultAttrs()
	attrs.ReplDeg = 2
	f, err := cl.Create("/r2", attrs)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 12<<10), 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fid := c.NS.Lookup("/r2").Entry.FileID
	deadline := time.Now().Add(20 * time.Second)
	for c.Provider(ProviderID(0)).Store().Stat(fid).Version != 1 || c.Provider(ProviderID(1)).Store().Stat(fid).Version != 1 {
		if time.Now().After(deadline) {
			t.Fatal("index segment never replicated")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.AwaitQuiesce(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := cl.Remove("/r2"); err != nil {
		t.Fatal(err)
	}
	wantCalls(t, "unlink (R=2)", log.take(), "NSRemove", "SegFetch", "SegDelete", "SegDelete")
	for i := 0; i < 2; i++ {
		if c.Provider(ProviderID(i)).Store().Stat(fid).Present {
			t.Errorf("p%02d still holds the index segment", i)
		}
	}
}

// TestStripedCommitRoundBudget: a commit over several dirty data segments is
// a Prepare2PC fan-out, ONE request for the index leg, the data Commit2PC
// fan-out, the index Commit2PC.
func TestStripedCommitRoundBudget(t *testing.T) {
	c := testCluster(t, 4)
	cl, log := loggedClient(t, c, "budget", "")
	f, err := cl.Create("/striped", wire.FileAttrs{
		Mode: wire.Striped, StripeCount: 4, StripeUnit: 4096,
		DeclaredSize: 256 << 10, ReplDeg: 1, Alpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 256<<10), 0); err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := log.take()
	nodes := 0 // participants holding data shadows
	for _, call := range got {
		if call == "Prepare2PC" {
			nodes++
		}
	}
	if nodes == 0 {
		t.Fatalf("striped commit prepared no data segment: %v", got)
	}
	want := []string{"NSCommitBegin"}
	for i := 0; i < nodes; i++ {
		want = append(want, "Prepare2PC")
	}
	want = append(want, "SegShadow")
	for i := 0; i < nodes+1; i++ {
		want = append(want, "Commit2PC")
	}
	wantCalls(t, "striped commit", got, append(want, "NSCommitComplete")...)
}
