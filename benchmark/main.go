// Command benchmark is the repository's end-to-end benchmark. It drives the
// planning service in-process (through serve.New(...).Handler().ServeHTTP,
// one closed-loop client) and the slice-level pipelined training runtime,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	benchmark --workload plan-cold|serve-mixed|train-step --seed N --seconds S --trace 0|1
//
// The gated figures are in normalized time: each operation's process CPU
// time divided by that of a reference kernel run between operations
// (speed.go), so they measure the program's work and not how much of a
// shared host it was given, or how fast the host ran. The CPU-clock and
// wall-clock figures are printed beside them.
//
// --trace 0 measures the named workload and reports the end-to-end metrics.
// --trace 1 is the traced replay: every workload is run once untraced and
// once with the benchmark's own layer timers around the calls into each
// module's exported API, and the per-layer metrics are reported. See
// README.md for what each workload isolates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times each workload is set up per run; setup_s
// is the median, so one slow set-up does not move it.
const setupRepeats = 9

// workload is one benchmark traffic mix.
type workload struct {
	name string
	// cores is the GOMAXPROCS the workload runs with; the planner's and
	// the tensor pool's worker counts follow it.
	cores int
	// setup builds the workload's inputs from the seed, validates every one
	// against the program and records its expected output.
	setup func(seed int64) (runner, error)
}

// runner runs a set-up workload's closed loop.
type runner interface {
	// run issues operations until the deadline (whole passes for
	// workloads that have them) and returns their samples.
	run(deadline time.Time) *samples
	// traced runs the same loop with the layer replay between
	// operations and returns the samples plus the per-layer metrics.
	traced(deadline time.Time) (*samples, []metric, error)
	// extra returns workload-specific end-to-end figures of s, printed
	// but not part of the gated metric set.
	extra(s *samples) []metric
}

// The planning service's one client runs on one core, which keeps the
// runtime's idle spinning and cross-core hand-offs out of the CPU clock.
// The training step runs its four stage goroutines on two cores, as the
// pipelined runtime is meant to; spread over both, its steps also average
// out a slow phase of either core.
var workloads = []workload{
	{name: "plan-cold", cores: 1, setup: setupPlanCold},
	{name: "serve-mixed", cores: 1, setup: setupServeMixed},
	{name: "train-step", cores: 2, setup: setupTrainStep},
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: plan-cold, serve-mixed or train-step")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay of every workload")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload plan-cold|serve-mixed|train-step, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*seed, dur)
	} else {
		res, err = runUntraced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupMedian sets w up setupRepeats times and returns the last runner and
// the median set-up time in normalized seconds: each set-up's CPU time at
// the mean of the speeds measured just before and just after it.
func setupMedian(w workload, seed int64) (runner, float64, error) {
	runtime.GOMAXPROCS(w.cores)
	var r runner
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		sp := newSpeed()
		before := sp.cur
		t0 := now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		cpu := t0.since().cpu
		sp.measure()
		sp.cur = (before + sp.cur) / 2
		times = append(times, sp.normalize(cpu).Seconds())
	}
	sort.Float64s(times)
	return r, times[len(times)/2], nil
}

// runUntraced measures one workload and reports its end-to-end metrics.
func runUntraced(w workload, seed int64, dur time.Duration) (*result, error) {
	host := &hostRecord{}
	r, setupS, err := setupMedian(w, seed)
	if err != nil {
		return nil, err
	}
	host.beginTimed()
	s := r.run(time.Now().Add(dur))
	host.endTimed()

	ms := append([]metric{{"setup_s", "s", setupS}, {"max_rss_mb", "MB", maxRSSMB()}}, s.endToEnd()...)
	printMetrics(w.name, "", ms)
	printMetrics(w.name, "", s.ungated())
	printMetrics(w.name, "", r.extra(s))
	printCounts(w.name, "", s)
	host.print(w.name)
	return newResult(ms, s.ops, s.failed), nil
}

// runTraced replays every workload: an untraced phase, then a traced phase
// of the same length with the layer timers on. It reports the per-layer
// metrics of all workloads plus each workload's tracing overhead, the
// change of its median latency between the two phases.
func runTraced(seed int64, dur time.Duration) (*result, error) {
	host := &hostRecord{}
	phase := dur / time.Duration(2*len(workloads))
	var layers []metric
	ops, failed := 0, 0
	host.beginTimed()
	for _, w := range workloads {
		// The same set-ups as an untraced run, so both phases start warm.
		r, _, err := setupMedian(w, seed)
		if err != nil {
			return nil, err
		}
		plain := r.run(time.Now().Add(phase))
		traced, lm, err := r.traced(time.Now().Add(phase))
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		printMetrics(w.name, "untraced ", append(plain.endToEnd(), plain.ungated()...))
		printCounts(w.name, "untraced ", plain)
		printMetrics(w.name, "traced   ", append(traced.endToEnd(), traced.ungated()...))
		printCounts(w.name, "traced   ", traced)
		base := plain.medianMS()
		over := 100 * ratio(traced.medianMS()-base, base)
		layers = append(layers, lm...)
		layers = append(layers, metric{w.name + ".trace_overhead_pct", "%", over})
		ops += plain.ops + traced.ops
		failed += plain.failed + traced.failed
	}
	host.endTimed()
	printMetrics("layers", "", layers)
	host.print("traced")
	return newResult(layers, ops, failed), nil
}

func newResult(ms []metric, ops, failed int) *result {
	out := &result{Correct: failed == 0 && ops > 0, Attempted: ops, Failed: failed, Metrics: map[string]metricOutput{}}
	for _, m := range keep(nil, ms...) {
		out.Metrics[m.name] = metricOutput{Value: m.value, Unit: m.unit}
	}
	return out
}

func printMetrics(workload, tag string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-12s %s%-34s %14.6f %s\n", workload, tag, m.name, m.value, m.unit)
	}
}

// printCounts prints a phase's operation counts: attempted, failed, and
// the latency samples the percentiles rest on.
func printCounts(workload, tag string, s *samples) {
	fmt.Printf("%-12s %sops=%d failed_ops=%d samples=%d\n", workload, tag, s.ops, s.failed, len(s.cpu))
}
