package main

import (
	"time"

	"repro/internal/stats"
)

// sample collects timings of one kind of operation. Percentiles
// interpolate linearly between ranks and read 0 on an empty sample.
type sample struct{ v []float64 }

func (s *sample) add(x float64)         { s.v = append(s.v, x) }
func (s *sample) merge(o *sample)       { s.v = append(s.v, o.v...) }
func (s *sample) n() int                { return len(s.v) }
func (s *sample) pct(p float64) float64 { return stats.Percentile(s.v, p) }
func (s *sample) median() float64       { return s.pct(50) }

func (s *sample) mean() float64 {
	sum := stats.Summarize(s.v)
	return sum.Mean()
}

func medianOf(xs []float64) float64 { return stats.Percentile(xs, 50) }

// rateWindow is the width of the windows a rate is the median of. A rate
// taken as count over elapsed time falls with every burst of host contention
// (the sandbox's hypervisor steals the CPU in bursts); the median window
// does not move until more than half the windows are hit.
const rateWindow = 500 * time.Millisecond

// windows keeps the latency of every completed operation, by the rateWindow
// since t0 it completed in. One goroutine owns each; merge them when the
// phase ends.
type windows struct {
	t0  time.Time
	lat [][]float64 // ms
}

// observe records one completion in the current window.
func (w *windows) observe(latMs float64) {
	i := int(time.Since(w.t0) / rateWindow)
	for len(w.lat) <= i {
		w.lat = append(w.lat, nil)
	}
	w.lat[i] = append(w.lat[i], latMs)
}

// pooled is every latency the ws observed in window i.
func pooled(i int, ws []*windows) sample {
	var s sample
	for _, w := range ws {
		if i < len(w.lat) {
			s.v = append(s.v, w.lat[i]...)
		}
	}
	return s
}

// windowRate is the median per-second rate of completions over the windows
// that lie wholly inside [t0, t0+elapsed), summed over ws. With no whole
// window it falls back to the plain rate.
func windowRate(elapsed time.Duration, ws ...*windows) float64 {
	full := int(elapsed / rateWindow)
	if full == 0 {
		total := 0
		for _, w := range ws {
			for _, l := range w.lat {
				total += len(l)
			}
		}
		return float64(total) / elapsed.Seconds()
	}
	rates := make([]float64, full)
	for i := range rates {
		s := pooled(i, ws)
		rates[i] = float64(s.n()) / rateWindow.Seconds()
	}
	return medianOf(rates)
}

// windowPct is the tail counterpart of windowRate: the p-th percentile of
// the latencies observed in each whole window, and of those the median. A
// stall of the host lands in a few windows and leaves the median window's
// tail alone; the percentile of the whole run would carry it. With no whole
// window it is the percentile of everything observed.
func windowPct(elapsed time.Duration, p float64, ws ...*windows) float64 {
	full := int(elapsed / rateWindow)
	if full == 0 {
		var all sample
		for _, w := range ws {
			for i := range w.lat {
				all.v = append(all.v, w.lat[i]...)
			}
		}
		return all.pct(p)
	}
	var pcts []float64
	for i := 0; i < full; i++ {
		if s := pooled(i, ws); s.n() > 0 {
			pcts = append(pcts, s.pct(p))
		}
	}
	return medianOf(pcts)
}
