// Command benchmark is this repository's benchmark: four workloads, one set
// of end-to-end metrics measured with tracing off, and a traced run that
// yields per-layer metrics by timing calls into each layer's public
// functions from these files. BENCHMARK.json at the repository root is the
// contract; README.md explains every workload and metric.
//
//	bash benchmark/run.sh -workload smallfile-host -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -compare out/a out/b
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is what the driver passes to one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

type workloadFunc func(cfg runConfig, rec *recorder) error

// workloads are the benchmark's four workloads; why is the line
// BENCHMARK.json carries for each.
var workloads = []struct {
	name, why string
	run       workloadFunc
}{
	{"smallfile-host", "control path on loopback TCP: 17 small RPCs per create/commit/read/unlink session and almost no bytes; transport, namespace and commit-protocol changes show here", smallfileHost},
	{"bulk-host", "byte path on loopback TCP: 1 MiB striped writes and verified reads with lazy replication competing for the cores; segstore, codec, checksum and fan-out changes show here", bulkHost},
	{"gateway-host", "open-loop Poisson thin clients through internal/proxy, latency from the due instant; the only workload through the gateway tier", gatewayHost},
	{"paper-model", "simulated fabric with the paper's cost model (Fig 9 sessions, Fig 11 bulk): moves with protocol changes, must not move with host-CPU or TCP changes", paperModel},
}

func findWorkload(name string) workloadFunc {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// runSeconds is how long the driver has one run measure.
const runSeconds = 20

// contract is BENCHMARK.json, derived from the tables the program reports
// from.
func contract() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, workload{w.name, w.why})
	}
	return json.MarshalIndent(c, "", "  ")
}

// metricValue is one reported number. N is the sample count behind it; the
// contract's result line carries value and unit only, the result file all
// three.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// recorder gathers one run's outcome.
type recorder struct {
	cfg       runConfig
	defs      map[string]metricDef
	metrics   map[string]metricValue
	attempted int64
	failed    int64
	firstErr  error
	traceFile string
	steal     stealMeter
}

func newRecorder(cfg runConfig) *recorder {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	r := &recorder{cfg: cfg, defs: make(map[string]metricDef), metrics: make(map[string]metricValue)}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

// set records a metric of the active table; a name outside it is a bug in
// the workload.
func (r *recorder) set(name string, v float64, n int) {
	d, ok := r.defs[name]
	if !ok {
		panic("benchmark: workload reported unknown metric " + name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: d.Unit, N: n}
}

// count adds operations attempted and failed (errors, refusals, timeouts
// and wrong bytes alike).
func (r *recorder) count(attempted, failed int64, firstErr error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = firstErr
	}
}

// setupMedian sets the deployment up setupRepeats times, closing all but the
// last, and records the median as setup_s: one bring-up is dominated by
// timers (join delay, heartbeats) and a single sample of it is noisy.
func setupMedian[T any](rec *recorder, setup func() (T, error), closeFn func(T)) (T, error) {
	var (
		times []float64
		last  T
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeFn(last)
		}
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = d
	}
	if !rec.cfg.trace {
		rec.set("setup_s", medianOf(times), len(times))
	}
	return last, nil
}

const setupRepeats = 3

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmupFor is the untimed run-in before measurement: connections, pools and
// the location tables reach steady state.
func warmupFor(seconds float64) time.Duration {
	w := secs(seconds / 8)
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// resultFile is what a run leaves in benchmark/out and what -compare reads.
type resultFile struct {
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	FirstError string                 `json:"first_error,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Conditions conditions             `json:"conditions"`
	TraceFile  string                 `json:"trace_file,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg runConfig
	var trace int
	var compare, printContract bool
	flag.BoolVar(&printContract, "contract", false, "print BENCHMARK.json as the metric tables define it")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: smallfile-host, bulk-host, gateway-host or paper-model")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for result and trace files")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if compare {
		return compareMain(flag.Args())
	}
	if printContract {
		blob, err := contract()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println(string(blob))
		return 0
	}
	run := findWorkload(cfg.workload)
	if run == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have %v\n", cfg.workload, names)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	cfg.trace = trace != 0

	start := time.Now()
	rec := newRecorder(cfg)
	rec.steal = newStealMeter()
	if err := run(cfg, rec); err != nil {
		// No result line: a deployment that cannot come up (a loopback
		// dial failing, a port that cannot be bound) is not a slow number.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rec.finish(time.Since(start)); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	return 0
}

// finish checks the run reported its whole metric table, writes the result
// file, prints the table and, last, the contract's result line.
func (r *recorder) finish(wall time.Duration) error {
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	stolen := r.steal.frac()
	if r.cfg.trace {
		r.set("loadgen.nproc", float64(runtime.NumCPU()), 1)
		r.set("loadgen.cpu_steal_frac", stolen, 1)
	}
	var missing []string
	for name, d := range r.defs {
		if _, ok := r.metrics[name]; ok {
			continue
		}
		if r.cfg.trace {
			// A layer this workload does not exercise reads 0.
			r.metrics[name] = metricValue{Unit: d.Unit}
			continue
		}
		missing = append(missing, name)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not reported: %v", missing)
	}
	cond := newConditions(r.cfg)
	cond.WallSeconds = wall.Seconds()
	cond.CPUStealFrac = stolen
	res := resultFile{
		Workload: r.cfg.workload, Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		FailedFrac: float64(r.failed) / float64(r.attempted), Metrics: r.metrics, Conditions: cond, TraceFile: r.traceFile,
	}
	if r.firstErr != nil {
		res.FirstError = r.firstErr.Error()
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %v\n", r.failed, r.attempted, r.firstErr)
	}
	kind := "e2e"
	if r.cfg.trace {
		kind = "layers"
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.outDir, fmt.Sprintf("%s-%s.json", r.cfg.workload, kind))
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}

	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v nproc=%d go=%s wall=%.1fs result=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, cond.NProc, cond.GoVersion, wall.Seconds(), path)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-44s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.N)
	}

	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, r.attempted, r.failed, make(map[string]lineMetric, len(r.metrics))}
	for n, m := range r.metrics {
		line.Metrics[n] = lineMetric{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// writeTrace leaves the traced window's spans and the metrics derived from
// them next to the result file.
func (r *recorder) writeTrace(t *tracer, spans []span) error {
	path, err := t.writeTrace(r.cfg.outDir, r.cfg.workload, spans, r.metrics)
	r.traceFile = path
	return err
}
