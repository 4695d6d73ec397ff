// Package placement implements Sorrento's load-aware provider selection
// (paper §3.7.1): each candidate provider is weighted by
// w = f_l^α · f_s^(1−α), where the load factor f_l = min{10, 1/l − 1} and
// the storage factor f_s = min{10, log₂(S/s)}, and a provider is drawn at
// random with probability proportional to its weight. α ∈ [0,1] biases the
// choice toward lightly loaded (α→1) or space-rich (α→0) providers.
//
// The same selection is used for placing new segments, choosing new replica
// sites, and picking migration destinations. Home hosts of small segments
// get a 3N weight bias so small-segment reads avoid the extra network hop
// (§3.7.2).
package placement

import (
	"errors"
	"math"
	"math/rand"
	"sync"

	"repro/internal/wire"
)

// factorCap bounds both factors to [0, 10] as in the paper.
const factorCap = 10

// ErrNoCandidates reports that no provider is eligible.
var ErrNoCandidates = errors.New("placement: no eligible candidates")

// LoadFactor computes f_l from a utilization l ∈ [0,1].
func LoadFactor(l float64) float64 {
	if l <= 0 {
		return factorCap
	}
	f := 1/l - 1
	return clamp(f)
}

// StorageFactor computes f_s from available space S and segment size s.
// Unknown segment sizes (s ≤ 0) are treated as one byte, maximizing the
// factor's range; providers lacking space for the segment get 0.
func StorageFactor(S, s int64) float64 {
	if S <= 0 {
		return 0
	}
	if s <= 0 {
		s = 1
	}
	if S < s {
		return 0
	}
	return clamp(math.Log2(float64(S) / float64(s)))
}

// Weight combines the factors: f_l^α · f_s^(1−α).
func Weight(fl, fs, alpha float64) float64 {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return math.Pow(fl, alpha) * math.Pow(fs, 1-alpha)
}

// Candidate is one provider considered for placement.
type Candidate struct {
	Node wire.NodeID
	// Load is the provider's gossiped CPU/I/O-wait utilization in [0,1].
	Load float64
	// FreeBytes is the provider's available space.
	FreeBytes int64
}

// FromLoads turns a membership view's gossiped loads into candidates.
// Draining providers (admin plane: being evacuated ahead of retirement) are
// left out so no new data lands on them, unless every live provider is
// draining — then placing on a draining node still beats failing the write.
func FromLoads(loads map[wire.NodeID]wire.LoadInfo) []Candidate {
	out := make([]Candidate, 0, len(loads))
	var draining []Candidate
	for node, l := range loads {
		c := Candidate{Node: node, Load: l.Load, FreeBytes: l.FreeBytes}
		if l.Draining {
			draining = append(draining, c)
		} else {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return draining
	}
	return out
}

// Options tune one selection.
type Options struct {
	// Alpha is the load/space favoritism (default 0.5 when negative).
	Alpha float64
	// SegSize is the segment's (potential maximum) size; used by f_s.
	SegSize int64
	// Exclude removes nodes from consideration (current replica holders,
	// the migrating source, …).
	Exclude map[wire.NodeID]bool
	// Home, when set together with SmallSegment, multiplies the home
	// host's weight by 3N to keep small segments home-local.
	Home         wire.NodeID
	SmallSegment bool
	// Racks labels candidates' failure domains and ExcludeRacks removes
	// whole racks from consideration (rack-aware replica placement, paper
	// §3.7.2). When the rack filter would leave no candidate, it is
	// dropped — availability beats spread.
	Racks        map[wire.NodeID]string
	ExcludeRacks map[string]bool
}

// Selector draws placement decisions from a seeded source, making tests
// reproducible.
type Selector struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSelector returns a selector seeded with seed.
func NewSelector(seed int64) *Selector {
	return &Selector{rng: rand.New(rand.NewSource(seed))}
}

// Choose picks one provider per the weighted-random scheme.
func (sel *Selector) Choose(cands []Candidate, opts Options) (wire.NodeID, error) {
	weights, eligible := weigh(cands, opts)
	if len(eligible) == 0 && len(opts.ExcludeRacks) > 0 {
		// No candidate outside the excluded racks: drop the rack filter
		// rather than fail the placement.
		relaxed := opts
		relaxed.ExcludeRacks = nil
		weights, eligible = weigh(cands, relaxed)
	}
	if len(eligible) == 0 {
		return "", ErrNoCandidates
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	sel.mu.Lock()
	defer sel.mu.Unlock()
	if total <= 0 {
		// All weights zero (e.g. every provider saturated): uniform draw
		// keeps the system making progress.
		return eligible[sel.rng.Intn(len(eligible))], nil
	}
	x := sel.rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return eligible[i], nil
		}
	}
	return eligible[len(eligible)-1], nil
}

// ChooseUniform picks uniformly at random among non-excluded candidates —
// the Sorrento-random baseline of Figure 14.
func (sel *Selector) ChooseUniform(cands []Candidate, exclude map[wire.NodeID]bool) (wire.NodeID, error) {
	var eligible []wire.NodeID
	for _, c := range cands {
		if exclude[c.Node] {
			continue
		}
		eligible = append(eligible, c.Node)
	}
	if len(eligible) == 0 {
		return "", ErrNoCandidates
	}
	sel.mu.Lock()
	defer sel.mu.Unlock()
	return eligible[sel.rng.Intn(len(eligible))], nil
}

// weigh computes the weight of each eligible candidate.
func weigh(cands []Candidate, opts Options) ([]float64, []wire.NodeID) {
	alpha := opts.Alpha
	if alpha < 0 {
		alpha = 0.5
	}
	weights := make([]float64, 0, len(cands))
	eligible := make([]wire.NodeID, 0, len(cands))
	n := len(cands)
	for _, c := range cands {
		if opts.Exclude[c.Node] {
			continue
		}
		if len(opts.ExcludeRacks) > 0 {
			if rack, ok := opts.Racks[c.Node]; ok && opts.ExcludeRacks[rack] {
				continue
			}
		}
		w := Weight(LoadFactor(c.Load), StorageFactor(c.FreeBytes, opts.SegSize), alpha)
		if opts.SmallSegment && opts.Home != "" && c.Node == opts.Home {
			w *= 3 * float64(n)
		}
		weights = append(weights, w)
		eligible = append(eligible, c.Node)
	}
	return weights, eligible
}

// Weights exposes the computed weights for diagnostics and tests.
func Weights(cands []Candidate, opts Options) map[wire.NodeID]float64 {
	weights, eligible := weigh(cands, opts)
	out := make(map[wire.NodeID]float64, len(eligible))
	for i, n := range eligible {
		out[n] = weights[i]
	}
	return out
}

func clamp(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > factorCap {
		return factorCap
	}
	return f
}
