package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// conditions make a result file self-describing.
type conditions struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// GatewayRates are the frozen open-loop rates (req/s).
	GatewayRates []int `json:"gateway_rates"`
	// Model scales: wall seconds per modeled second, and the factor every
	// byte quantity and bandwidth is divided by.
	ModelTimeScaleSmall float64 `json:"model_time_scale_small"`
	ModelTimeScaleBulk  float64 `json:"model_time_scale_bulk"`
	ModelDataScaleBulk  int64   `json:"model_data_scale_bulk"`
	WallSeconds         float64 `json:"wall_seconds"`
	// CPUStealFrac is the share of the machine's CPU time the hypervisor
	// gave to others while the run lasted. Wall-clock metrics of a run with
	// a large share measure the host's load, not the program.
	CPUStealFrac float64 `json:"cpu_steal_frac"`
	TCPTwReuse   string  `json:"tcp_tw_reuse"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func readSysctl(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func newConditions(cfg runConfig) conditions {
	return conditions{
		NProc:               runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		GoVersion:           runtime.Version(),
		GitCommit:           gitCommit(),
		Seed:                cfg.seed,
		Seconds:             cfg.seconds,
		Trace:               cfg.trace,
		GatewayRates:        []int{gatewayRateLow, gatewayRateMid, gatewayRateHigh},
		ModelTimeScaleSmall: modelSmallTimeScale,
		ModelTimeScaleBulk:  modelBulkTimeScale,
		ModelDataScaleBulk:  modelBulkDataScale,
		TCPTwReuse:          readSysctl("/proc/sys/net/ipv4/tcp_tw_reuse"),
	}
}

// cpuTicks reads the machine-wide CPU counters: ticks stolen by the
// hypervisor and ticks in total.
func cpuTicks() (steal, total float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the stolen share of CPU time from its creation.
type stealMeter struct{ steal0, total0 float64 }

func newStealMeter() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t := cpuTicks()
	if t <= m.total0 {
		return 0
	}
	return (s - m.steal0) / (t - m.total0)
}
