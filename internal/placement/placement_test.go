package placement

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestLoadFactorFormula(t *testing.T) {
	cases := []struct{ l, want float64 }{
		{0, 10},    // idle: capped at 10
		{0.05, 10}, // 1/0.05-1 = 19 → capped
		{0.5, 1},   // 1/0.5-1 = 1
		{0.25, 3},  // 1/0.25-1 = 3
		{1, 0},     // saturated
		{1.5, 0},   // clamped below
	}
	for _, c := range cases {
		if got := LoadFactor(c.l); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LoadFactor(%v) = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestStorageFactorFormula(t *testing.T) {
	cases := []struct {
		S, s int64
		want float64
	}{
		{1024, 1024, 0},  // log2(1) = 0
		{4096, 1024, 2},  // log2(4) = 2
		{1 << 40, 1, 10}, // capped
		{100, 200, 0},    // not enough space
		{0, 100, 0},
	}
	for _, c := range cases {
		if got := StorageFactor(c.S, c.s); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("StorageFactor(%d,%d) = %v, want %v", c.S, c.s, got, c.want)
		}
	}
}

func TestStorageFactorUnknownSize(t *testing.T) {
	if got := StorageFactor(2048, 0); got != 10 {
		t.Errorf("StorageFactor(2048, unknown) = %v, want capped 10", got)
	}
}

func TestWeightEndpoints(t *testing.T) {
	// α=1: pure load factor; α=0: pure storage factor.
	if got := Weight(4, 9, 1); got != 4 {
		t.Errorf("Weight α=1: %v", got)
	}
	if got := Weight(4, 9, 0); got != 9 {
		t.Errorf("Weight α=0: %v", got)
	}
	if got := Weight(4, 9, 0.5); math.Abs(got-6) > 1e-9 {
		t.Errorf("Weight α=0.5: %v, want 6 (geometric mean)", got)
	}
}

func TestWeightClampsAlpha(t *testing.T) {
	if Weight(4, 9, -1) != Weight(4, 9, 0) || Weight(4, 9, 2) != Weight(4, 9, 1) {
		t.Error("alpha not clamped")
	}
}

func TestWeightNonNegative(t *testing.T) {
	f := func(l float64, s int64, alpha float64) bool {
		w := Weight(LoadFactor(math.Abs(l)), StorageFactor(s, 1024), math.Mod(math.Abs(alpha), 1))
		return w >= 0 && !math.IsNaN(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func someCands() []Candidate {
	return []Candidate{
		{Node: "idle", Load: 0.05, FreeBytes: 1 << 30},
		{Node: "busy", Load: 0.95, FreeBytes: 1 << 30},
		{Node: "full", Load: 0.05, FreeBytes: 1 << 10},
	}
}

func TestChoosePrefersIdleRoomyNodes(t *testing.T) {
	sel := NewSelector(1)
	counts := map[wire.NodeID]int{}
	for i := 0; i < 2000; i++ {
		n, err := sel.Choose(someCands(), Options{Alpha: 0.5, SegSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		counts[n]++
	}
	if counts["idle"] < counts["busy"]*3 {
		t.Errorf("idle=%d busy=%d: load-aware selection not favoring idle", counts["idle"], counts["busy"])
	}
	if counts["full"] != 0 {
		// full has less space than the segment → storage factor 0 → weight 0.
		t.Errorf("full node chosen %d times despite zero weight", counts["full"])
	}
}

func TestAlphaBiasesChoice(t *testing.T) {
	sel := NewSelector(2)
	cands := []Candidate{
		{Node: "light-full", Load: 0.1, FreeBytes: 2 << 20}, // light load, little space
		{Node: "heavy-roomy", Load: 0.8, FreeBytes: 1 << 40},
	}
	countAt := func(alpha float64) map[wire.NodeID]int {
		counts := map[wire.NodeID]int{}
		for i := 0; i < 2000; i++ {
			n, _ := sel.Choose(cands, Options{Alpha: alpha, SegSize: 1 << 20})
			counts[n]++
		}
		return counts
	}
	highAlpha := countAt(0.9) // favors load → light-full
	lowAlpha := countAt(0.1)  // favors space → heavy-roomy
	if highAlpha["light-full"] <= highAlpha["heavy-roomy"] {
		t.Errorf("α=0.9 picked light-full %d vs heavy-roomy %d", highAlpha["light-full"], highAlpha["heavy-roomy"])
	}
	if lowAlpha["heavy-roomy"] <= lowAlpha["light-full"] {
		t.Errorf("α=0.1 picked heavy-roomy %d vs light-full %d", lowAlpha["heavy-roomy"], lowAlpha["light-full"])
	}
}

func TestExcludeRespected(t *testing.T) {
	sel := NewSelector(3)
	for i := 0; i < 500; i++ {
		n, err := sel.Choose(someCands(), Options{
			Alpha:   0.5,
			SegSize: 1 << 20,
			Exclude: map[wire.NodeID]bool{"idle": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == "idle" {
			t.Fatal("excluded node chosen")
		}
	}
}

func TestAllExcluded(t *testing.T) {
	sel := NewSelector(4)
	_, err := sel.Choose(someCands(), Options{
		Exclude: map[wire.NodeID]bool{"idle": true, "busy": true, "full": true},
	})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoCandidates(t *testing.T) {
	sel := NewSelector(5)
	if _, err := sel.Choose(nil, Options{}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
}

func TestAllSaturatedFallsBackToUniform(t *testing.T) {
	sel := NewSelector(6)
	cands := []Candidate{
		{Node: "a", Load: 1, FreeBytes: 10},
		{Node: "b", Load: 1, FreeBytes: 10},
	}
	counts := map[wire.NodeID]int{}
	for i := 0; i < 1000; i++ {
		n, err := sel.Choose(cands, Options{Alpha: 0.5, SegSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		counts[n]++
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Errorf("uniform fallback skewed: %v", counts)
	}
}

func TestHomeBiasForSmallSegments(t *testing.T) {
	sel := NewSelector(7)
	cands := make([]Candidate, 8)
	for i := range cands {
		cands[i] = Candidate{Node: wire.NodeID(string(rune('a' + i))), Load: 0.3, FreeBytes: 1 << 30}
	}
	counts := map[wire.NodeID]int{}
	for i := 0; i < 4000; i++ {
		n, _ := sel.Choose(cands, Options{Alpha: 0.5, SegSize: 4096, Home: "c", SmallSegment: true})
		counts[n]++
	}
	// Home weight ×3N=24: expect c to win ~24/31 of draws.
	if counts["c"] < 2400 {
		t.Errorf("home host chosen only %d/4000 times", counts["c"])
	}
	// Without the small-segment flag, no bias.
	counts = map[wire.NodeID]int{}
	for i := 0; i < 4000; i++ {
		n, _ := sel.Choose(cands, Options{Alpha: 0.5, SegSize: 4096, Home: "c"})
		counts[n]++
	}
	if counts["c"] > 1500 {
		t.Errorf("home bias applied without SmallSegment: %d/4000", counts["c"])
	}
}

func TestChooseUniform(t *testing.T) {
	sel := NewSelector(8)
	counts := map[wire.NodeID]int{}
	for i := 0; i < 3000; i++ {
		n, err := sel.ChooseUniform(someCands(), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[n]++
	}
	for node, c := range counts {
		if c < 700 || c > 1400 {
			t.Errorf("uniform draw skewed: %v=%d", node, c)
		}
	}
	if _, err := sel.ChooseUniform(nil, nil); !errors.Is(err, ErrNoCandidates) {
		t.Error("empty uniform choice did not fail")
	}
}

func TestWeightsDiagnostics(t *testing.T) {
	w := Weights(someCands(), Options{Alpha: 0.5, SegSize: 1 << 20})
	if len(w) != 3 {
		t.Fatalf("weights = %v", w)
	}
	if w["full"] != 0 {
		t.Errorf("full weight = %v, want 0", w["full"])
	}
	if w["idle"] <= w["busy"] {
		t.Errorf("idle %v <= busy %v", w["idle"], w["busy"])
	}
}

func TestDefaultAlphaWhenNegative(t *testing.T) {
	w1 := Weights(someCands(), Options{Alpha: -1, SegSize: 1 << 20})
	w2 := Weights(someCands(), Options{Alpha: 0.5, SegSize: 1 << 20})
	for n := range w1 {
		if math.Abs(w1[n]-w2[n]) > 1e-12 {
			t.Errorf("negative alpha did not default to 0.5: %v vs %v", w1, w2)
		}
	}
}

func TestRackExclusion(t *testing.T) {
	sel := NewSelector(11)
	cands := []Candidate{
		{Node: "a1", Load: 0.3, FreeBytes: 1 << 30},
		{Node: "a2", Load: 0.3, FreeBytes: 1 << 30},
		{Node: "b1", Load: 0.3, FreeBytes: 1 << 30},
	}
	racks := map[wire.NodeID]string{"a1": "rackA", "a2": "rackA", "b1": "rackB"}
	for i := 0; i < 200; i++ {
		n, err := sel.Choose(cands, Options{
			Alpha: 0.5, SegSize: 1 << 20,
			Racks: racks, ExcludeRacks: map[string]bool{"rackA": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != "b1" {
			t.Fatalf("picked %v from an excluded rack", n)
		}
	}
}

func TestRackExclusionFallsBackWhenImpossible(t *testing.T) {
	sel := NewSelector(12)
	cands := []Candidate{
		{Node: "a1", Load: 0.3, FreeBytes: 1 << 30},
		{Node: "a2", Load: 0.3, FreeBytes: 1 << 30},
	}
	racks := map[wire.NodeID]string{"a1": "rackA", "a2": "rackA"}
	// Every candidate lives on the excluded rack: availability wins and
	// the filter is dropped.
	n, err := sel.Choose(cands, Options{
		Alpha: 0.5, SegSize: 1 << 20,
		Racks: racks, ExcludeRacks: map[string]bool{"rackA": true},
	})
	if err != nil || (n != "a1" && n != "a2") {
		t.Fatalf("fallback failed: %v %v", n, err)
	}
}

func TestUnlabeledNodesPassRackFilter(t *testing.T) {
	sel := NewSelector(13)
	cands := []Candidate{
		{Node: "labeled", Load: 0.3, FreeBytes: 1 << 30},
		{Node: "unlabeled", Load: 0.3, FreeBytes: 1 << 30},
	}
	racks := map[wire.NodeID]string{"labeled": "rackA"}
	for i := 0; i < 100; i++ {
		n, err := sel.Choose(cands, Options{
			Alpha: 0.5, SegSize: 1 << 20,
			Racks: racks, ExcludeRacks: map[string]bool{"rackA": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != "unlabeled" {
			t.Fatalf("labeled excluded node chosen: %v", n)
		}
	}
}

func TestFromLoadsSkipsDrainingUnlessAllAre(t *testing.T) {
	loads := map[wire.NodeID]wire.LoadInfo{
		"a": {Load: 0.2, FreeBytes: 100},
		"b": {Load: 0.4, FreeBytes: 200, Draining: true},
	}
	got := FromLoads(loads)
	if len(got) != 1 || got[0] != (Candidate{Node: "a", Load: 0.2, FreeBytes: 100}) {
		t.Errorf("candidates %v, want only the serving node a", got)
	}
	loads["a"] = wire.LoadInfo{Draining: true}
	if got := FromLoads(loads); len(got) != 2 {
		t.Errorf("every node draining: candidates %v, want both rather than none", got)
	}
}
