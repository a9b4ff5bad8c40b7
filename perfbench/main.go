// Command perfbench is the end-to-end benchmark of the GMR pipeline. It
// drives the program only through its public entry points
// (experiments.RunGMR, experiments.TableV, core.RunContext and
// serve.Server.Handler), times each call from here, and reads the spans,
// counters and registries the program already exposes.
//
// Run it from the root of a checkout (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload revise --seed 1 --seconds 20 --trace 0
//
// Workloads: revise, evolve, baselines, forecast (see spec.json and
// BENCHMARK.json). With --trace 0 the last line of standard output is a
// JSON object carrying every end-to-end metric; with --trace 1 a traced
// run carries every per-layer metric instead. A human-readable table with
// sample counts goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps the OS threads running Go code, so figures from machines
// with more cores stay comparable with the recorded ones.
const maxProcs = 2

// value is one metric reading and the number of samples behind it
// (0 = the workload does not exercise that layer).
type value struct {
	v float64
	n int
}

// bench carries one invocation's settings and its accumulated results.
type bench struct {
	sp       *spec
	workload string
	seed     int64
	window   time.Duration
	traced   bool

	attempted, failed int
	problems          []string
	e2e, layer        map[string]value
}

// op records one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
}

// note prints a line of the human-readable report.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s: "+format+"\n", append([]any{b.workload}, args...)...)
}

func (b *bench) setE2E(name string, v float64, n int)   { b.e2e[name] = value{v, n} }
func (b *bench) setLayer(name string, v float64, n int) { b.layer[name] = value{v, n} }

// checkDigest compares an output digest with the one recorded for the
// default seed. A mismatch is printed, not counted as a failure, so a
// deliberate bit-changing change is visible without being blocked.
func (b *bench) checkDigest(d string) {
	want := b.sp.Digests[b.workload]
	switch {
	case b.seed != b.sp.DefaultSeed:
		b.note("output digest %s (no recorded digest for seed %d)", d, b.seed)
	case want == d:
		b.note("output digest %s matches the recorded digest", d)
	default:
		b.note("output digest %s DIFFERS from the recorded %q (reported, not counted as a failure)", d, want)
	}
}

// repeatUntil runs rep at least minReps times, then more while another
// rep of average length still ends inside the measurement window.
func (b *bench) repeatUntil(rep func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= max(b.sp.MinReps, 1) && time.Since(start)*time.Duration(i+1)/time.Duration(i) > b.window {
			return
		}
		rep(i)
	}
}

var workloads = map[string]func(*bench) error{
	"revise":    runRevise,
	"evolve":    runEvolve,
	"baselines": runBaselines,
	"forecast":  runForecast,
}

func main() {
	workload := flag.String("workload", "", "revise | evolve | baselines | forecast")
	seed := flag.Int64("seed", 0, "workload seed: the search seeds, served posterior and traffic derive from it (0 = spec.json default_seed)")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = untraced run printing end-to-end metrics; 1 = traced run printing per-layer metrics")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if seed == 0 {
		seed = sp.DefaultSeed
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	b := &bench{
		sp: sp, workload: workload, seed: seed,
		window: time.Duration(seconds) * time.Second, traced: trace == 1,
		e2e: map[string]value{}, layer: map[string]value{},
	}
	if err := fn(b); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.setLayer("proc.peak_rss_mb", rss, 1)
	b.note("peak RSS %.1f MB", rss)

	table, which := sp.EndToEnd, b.e2e
	if b.traced {
		table, which = sp.PerLayer, b.layer
	}
	declared := map[string]bool{}
	for _, m := range table {
		declared[m.Name] = true
	}
	for _, k := range sortedKeys(which) {
		if !declared[k] {
			return fmt.Errorf("internal: metric %s is not declared in BENCHMARK.json", k)
		}
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		v, ok := which[m.Name]
		if !ok && !b.traced {
			return fmt.Errorf("internal: end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("internal: metric %s is not finite", m.Name)
		}
		out.Metrics[m.Name] = metric{Value: v.v, Unit: m.Unit}
		samples := "n/a"
		if ok && v.n > 0 {
			samples = strconv.Itoa(v.n)
		}
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-8s samples=%s\n", m.Name, v.v, m.Unit, samples)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "  FAILED:", p)
	}
	fmt.Fprintf(os.Stderr, "  fail_ratio %d/%d = %.4g\n", b.failed, b.attempted, ratio(float64(b.failed), float64(b.attempted)))
	if b.attempted == 0 {
		return fmt.Errorf("internal: no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB. Each
// invocation is a fresh process, so this is the workload's peak.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
