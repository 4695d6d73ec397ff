package main

import (
	"strings"

	"repro/internal/obs"
)

// obsSnap is a read-only snapshot of the program's own registry, for counts
// no wrapper can see. The registry is enabled in traced runs only.
type obsSnap struct {
	wireBytes     float64            // framed bytes sent by every node, requests and replies
	clientRetries float64            // RPC retries by full-protocol clients
	busy          map[string]float64 // modeled busy seconds by resource name
}

func snapshotObs(o *obs.Obs) obsSnap {
	s := obsSnap{busy: make(map[string]float64)}
	if o.Reg() == nil {
		return s
	}
	for _, m := range o.Reg().Snapshot() {
		switch m.Name {
		case "sorrento_rpc_bytes_total":
			if m.Labels["dir"] == "sent" {
				s.wireBytes += m.Value
			}
		case "sorrento_client_retries_total":
			s.clientRetries += m.Value
		case "sorrento_resource_busy_seconds_total":
			s.busy[m.Labels["resource"]] = m.Value
		}
	}
	return s
}

// busyDelta sums the busy seconds gained since before by the resources whose
// name starts with prefix and ends in suffix ("p03/disk", "ms0/nic-send",
// "namespace/cpu").
func (s obsSnap) busyDelta(before obsSnap, prefix, suffix string) float64 {
	var d float64
	for name, v := range s.busy {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			d += v - before.busy[name]
		}
	}
	return d
}
