package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// -compare a b sets two sides of result files against each other: the A/A
// check of this benchmark (two sets of runs of one commit) and the parent-
// versus-change check of a later one. A side is a result file or a directory
// searched for result files; several runs of one workload on a side are
// summarised by their median, and their spread decides whether a difference
// can be resolved at all.

// sideRuns collects a side's values per workload and metric.
type sideRuns struct {
	values     map[string]map[string][]float64 // workload -> metric -> one value per run
	units      map[string]string
	failedFrac map[string]float64 // workload -> worst failed fraction seen
}

func loadSide(path string) (*sideRuns, error) {
	side := &sideRuns{values: map[string]map[string][]float64{}, units: map[string]string{}, failedFrac: map[string]float64{}}
	var files []string
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		files = []string{path}
	} else {
		err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") && !strings.HasSuffix(p, "-trace.json") {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res resultFile
		if err := json.Unmarshal(blob, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if res.Workload == "" || len(res.Metrics) == 0 {
			return nil, fmt.Errorf("%s: not a benchmark result file", f)
		}
		w := side.values[res.Workload]
		if w == nil {
			w = map[string][]float64{}
			side.values[res.Workload] = w
		}
		for name, m := range res.Metrics {
			w[name] = append(w[name], m.Value)
			side.units[name] = m.Unit
		}
		if res.FailedFrac > side.failedFrac[res.Workload] {
			side.failedFrac[res.Workload] = res.FailedFrac
		}
	}
	if len(side.values) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return side, nil
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 with fewer than four values, when it cannot be told.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := sample{v: append([]float64(nil), xs...)}
	med := s.median()
	if med == 0 {
		return 0
	}
	d := (s.pct(75) - s.pct(25)) / med
	if d < 0 {
		d = -d
	}
	return d
}

// verdict compares medians a and b of a metric where better says which
// direction is good. bound 0 marks a per-layer metric, which is reported and
// not judged.
func verdict(a, b, spreadA, spreadB, bound float64, better string) string {
	if bound == 0 {
		return "-"
	}
	if spreadA > bound || spreadB > bound {
		return "unresolved"
	}
	if a == 0 {
		if b == 0 {
			return "same"
		}
		return "unresolved"
	}
	change := (b - a) / a // positive = b larger
	if better == "higher" {
		change = -change
	}
	switch { // change > 0 = b worse
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// compareSides writes one row per (workload, metric) and reports whether b
// regressed against a.
func compareSides(w io.Writer, a, b *sideRuns) (regressed bool) {
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	var workloadNames []string
	for name := range a.values {
		if _, ok := b.values[name]; ok {
			workloadNames = append(workloadNames, name)
		}
	}
	sort.Strings(workloadNames)
	fmt.Fprintf(w, "%-16s %-44s %14s %14s %-8s %7s %6s  %s\n", "workload", "metric", "a", "b", "unit", "change", "bound", "verdict")
	for _, wl := range workloadNames {
		fa, fb := a.failedFrac[wl], b.failedFrac[wl]
		v := "same"
		if fb > fa {
			v, regressed = "worse", true
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(w, "%-16s %-44s %14.6f %14.6f %-8s %7s %6s  %s\n", wl, "failed_frac", fa, fb, "ratio", "", "0", v)
		var names []string
		for name := range a.values[wl] {
			if _, ok := b.values[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a.values[wl][name], b.values[wl][name]
			ma, mb := medianOf(va), medianOf(vb)
			d := defs[name]
			v := verdict(ma, mb, spread(va), spread(vb), d.Bound, d.Better)
			if v == "worse" {
				regressed = true
			}
			change, bound := "", ""
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", (mb-ma)/ma*100)
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "%-16s %-44s %14.4f %14.4f %-8s %7s %6s  %s\n", wl, name, ma, mb, a.units[name], change, bound, v)
		}
	}
	return regressed
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json   (each a result file or a directory of them)")
		return 2
	}
	a, err := loadSide(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadSide(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if compareSides(os.Stdout, a, b) {
		fmt.Fprintln(os.Stderr, "benchmark: b is worse than a on at least one end-to-end metric")
		return 1
	}
	return 0
}
