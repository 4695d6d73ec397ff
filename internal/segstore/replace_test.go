package segstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/simtime"
)

// The folded index request (shadow + whole content + prepare) is resent by
// the coordinator after lost replies and re-planned after lost aborts; these
// tests pin what a participant does with each repetition.

func TestReplaceAndPrepareResendIsOnePrepare(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, bytes.Repeat([]byte{'o'}, 40), 1, 0, false)

	// The same request from several goroutines at once, as retries that
	// overtake each other would arrive.
	planned := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range planned {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := st.ReplaceAndPrepare("s", seg, 0, []byte("index-a"), time.Minute, 1, 0)
			if err != nil {
				t.Errorf("resend %d: %v", i, err)
			}
			planned[i] = v
		}(i)
	}
	wg.Wait()
	for i, v := range planned {
		if v != 2 {
			t.Errorf("resend %d planned v%d, want v2", i, v)
		}
	}
	if n := st.ShadowCount(); n != 1 {
		t.Fatalf("%d shadows after resends, want 1", n)
	}
	// A plain Prepare2PC for the same session sees the same prepared shadow.
	if v, size, err := st.Prepare("s", seg); err != nil || v != 2 || size != 7 {
		t.Fatalf("Prepare after fold: v%d size %d err %v", v, size, err)
	}
	if v, _, err := st.CommitPrepared("s", seg); err != nil || v != 2 {
		t.Fatalf("commit: v%d err %v", v, err)
	}
	if got, _, _ := st.Read(seg, 0, 0, 100); string(got) != "index-a" {
		t.Fatalf("committed %q, want the replaced content only", got)
	}
	if used := st.Disk().Used(); used != 40+7 {
		t.Errorf("disk used %d after commit, want %d (both retained versions)", used, 40+7)
	}
}

func TestReplaceAndPrepareReplanKeepsSlotTakesLastBytes(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("old index, longer than what follows"), 1, 0, false)

	if v, err := st.ReplaceAndPrepare("s", seg, 0, []byte("first plan"), time.Minute, 1, 0); err != nil || v != 2 {
		t.Fatalf("first plan: v%d err %v", v, err)
	}
	// The round failed elsewhere, its Abort2PC never arrived, and the
	// coordinator re-planned: other bytes for the shadow it still holds.
	if v, err := st.ReplaceAndPrepare("s", seg, 0, []byte("replan"), time.Minute, 1, 0); err != nil || v != 2 {
		t.Fatalf("replan: v%d err %v", v, err)
	}
	if n := st.ShadowCount(); n != 1 {
		t.Fatalf("%d shadows after replan, want 1", n)
	}
	if got, _ := st.ReadShadow("s", seg, 0, 100); string(got) != "replan" {
		t.Fatalf("shadow holds %q, want the last bytes", got)
	}
	if v, size, err := st.CommitPrepared("s", seg); err != nil || v != 2 || size != 6 {
		t.Fatalf("commit: v%d size %d err %v", v, size, err)
	}
	if got, _, _ := st.Read(seg, 2, 0, 100); string(got) != "replan" {
		t.Fatalf("published %q, want exactly the last bytes", got)
	}
}

func TestReplaceAndPrepareRespectsAnotherSessionsSlot(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)

	st.Shadow("other", seg, 0, time.Minute, 1, 0)
	if _, _, err := st.Prepare("other", seg); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReplaceAndPrepare("s", seg, 0, []byte("mine"), time.Minute, 1, 0); !errors.Is(err, ErrPrepared) {
		t.Fatalf("fold against a held commit slot: %v, want ErrPrepared", err)
	}
	if n := st.ShadowCount(); n != 1 {
		t.Fatalf("refused request left %d shadows, want the other session's only", n)
	}
	if used := st.Disk().Used(); used != 4 {
		t.Errorf("refused request left %d bytes allocated, want 4", used)
	}
	// Once the holder is done the same request goes through.
	if _, _, err := st.CommitPrepared("other", seg); err != nil {
		t.Fatal(err)
	}
	if v, err := st.ReplaceAndPrepare("s", seg, 0, []byte("mine"), time.Minute, 1, 0); err != nil || v != 3 {
		t.Fatalf("fold after the slot freed: v%d err %v", v, err)
	}
}

func TestReplaceAndPrepareExpiredShadow(t *testing.T) {
	clock := simtime.NewClock(0.0001)
	st := New(clock, disk.New(clock, "t", disk.SCSI10K(), 1<<30))
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	if _, err := st.ReplaceAndPrepare("s", seg, 0, []byte("v2"), time.Second, 1, 0); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(2 * time.Second)
	if _, err := st.ReplaceAndPrepare("s", seg, 0, []byte("v2 again"), time.Second, 1, 0); !errors.Is(err, ErrExpired) {
		t.Fatalf("fold on an expired shadow: %v, want ErrExpired", err)
	}
	// The expired shadow is gone and took its commit slot with it.
	if n := st.ShadowCount(); n != 0 {
		t.Fatalf("%d shadows after expiry, want 0", n)
	}
	if v, err := st.ReplaceAndPrepare("t", seg, 0, []byte("next"), time.Minute, 1, 0); err != nil || v != 2 {
		t.Fatalf("another session after expiry: v%d err %v", v, err)
	}
}

func TestReplaceAndPrepareAbort(t *testing.T) {
	st := newStore(t)

	// On an existing segment the abort frees the commit slot.
	seg := ids.New()
	st.Create(seg, []byte("base"), 1, 0, false)
	if _, err := st.ReplaceAndPrepare("s", seg, 0, []byte("doomed"), time.Minute, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.AbortPrepared("s", seg); err != nil {
		t.Fatal(err)
	}
	if v, err := st.ReplaceAndPrepare("t", seg, 0, []byte("next"), time.Minute, 1, 0); err != nil || v != 2 {
		t.Fatalf("slot not freed by abort: v%d err %v", v, err)
	}
	st.AbortPrepared("t", seg)

	// A brand-new segment disappears with its only shadow.
	fresh := ids.New()
	if v, err := st.ReplaceAndPrepare("s", fresh, 0, []byte("first version"), time.Minute, 2, 0); err != nil || v != 1 {
		t.Fatalf("fold on a new segment: v%d err %v", v, err)
	}
	if !st.Stat(fresh).HasShadow {
		t.Fatal("new segment has no record while prepared")
	}
	if err := st.AbortPrepared("s", fresh); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	_, left := st.segs[fresh]
	st.mu.Unlock()
	if left {
		t.Fatal("aborted new segment left its record behind")
	}
	if used := st.Disk().Used(); used != 4 {
		t.Errorf("disk used %d after the aborts, want 4", used)
	}
}

// TestReplaceKeepsTheBaseVersion: whole-content commits based on v1 that
// the namespace never records leave v1 the version readers are sent to, so
// consolidation keeps it until a commit is based past it.
func TestReplaceKeepsTheBaseVersion(t *testing.T) {
	st := newStore(t)
	seg := ids.New()
	commit := func(base uint64, data string) {
		t.Helper()
		if _, err := st.ReplaceAndPrepare("s", seg, base, []byte(data), time.Minute, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.CommitPrepared("s", seg); err != nil {
			t.Fatal(err)
		}
	}
	commit(0, "v1")
	for range 4 {
		commit(1, "unrecorded") // v2..v5
	}
	if got, _, err := st.Read(seg, 1, 0, 10); err != nil || string(got) != "v1" {
		t.Fatalf("v1 after four commits based on it: %q, %v", got, err)
	}
	commit(5, "v6")
	if _, _, err := st.Read(seg, 1, 0, 10); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("v1 still kept after a commit based on v5: %v", err)
	}
}
