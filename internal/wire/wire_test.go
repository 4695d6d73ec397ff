package wire

import "testing"

func TestSizeOfDataDominates(t *testing.T) {
	data := make([]byte, 1<<20)
	if got := SizeOf(SegWrite{Data: data}); got < len(data) {
		t.Errorf("SizeOf(1MB write) = %d", got)
	}
	if got := SizeOf(SegRead{}); got > 1024 {
		t.Errorf("SizeOf(control msg) = %d, want small", got)
	}
	if SizeOf(&SegWrite{Data: data}) != SizeOf(SegWrite{Data: data}) {
		t.Error("pointer and value sizes differ")
	}
}

func TestSizeOfScalesWithEntries(t *testing.T) {
	small := SizeOf(LocRefresh{Entries: make([]LocEntry, 1)})
	big := SizeOf(LocRefresh{Entries: make([]LocEntry, 1000)})
	if big <= small {
		t.Errorf("LocRefresh size does not scale: %d vs %d", small, big)
	}
}

func TestUsedFrac(t *testing.T) {
	l := LoadInfo{FreeBytes: 25, TotalBytes: 100}
	if got := l.UsedFrac(); got != 0.75 {
		t.Errorf("UsedFrac = %v", got)
	}
	if (LoadInfo{}).UsedFrac() != 0 {
		t.Error("zero LoadInfo UsedFrac != 0")
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if Linear.String() != "linear" || Striped.String() != "striped" || Hybrid.String() != "hybrid" {
		t.Error("LayoutMode strings wrong")
	}
	if LayoutMode(99).String() != "unknown" {
		t.Error("unknown mode string")
	}
	if PlaceLoadAware.String() != "load-aware" || PlaceRandom.String() != "random" || PlaceLocal.String() != "local" {
		t.Error("policy strings wrong")
	}
	if PlacementPolicy(99).String() != "unknown" {
		t.Error("unknown policy string")
	}
}

func TestDefaultAttrs(t *testing.T) {
	a := DefaultAttrs()
	if a.ReplDeg != 1 || a.Alpha != 0.5 || a.Mode != Linear || a.VersioningOff {
		t.Errorf("DefaultAttrs = %+v", a)
	}
}
