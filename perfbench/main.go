// Command perfbench is the qav repository benchmark. It boots the
// serving stack inside one process — a router with qavrouter's
// defaults in front of two replicas built like qavd with its default
// flags — drives one named closed-loop workload through it from two
// client goroutines, checks every reply against an oracle, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of
// a traced run). See README.md for the workloads and metric
// definitions.
//
//	bash perfbench/run.sh --workload rewrite_hot --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// are JSON records describing the run, each stamped with the run's
// fingerprint.
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
	"sync/atomic"
	"time"

	"qav/internal/engine"
)

// A -trace 0 run sets the stack up at least minSetupRounds times, and
// more (up to maxSetupRounds) while the rounds so far took less than
// setupBudget; setup_s is the median round. Cheap set-ups thus get
// more rounds, which steadies their median.
const (
	minSetupRounds = 3
	maxSetupRounds = 9
	setupBudget    = time.Second
)

// The end-to-end figures are medians over parts of the window, so that
// a burst of noise on a shared machine moves them less: ops_per_s over
// subWindows equal time slices, p50 and p99 over up to subWindows
// chunks of at least minPerChunk samples in completion order.
const (
	subWindows = 10
	// Chunks for the p50 hold at least 500 samples; those for the p99 at
	// least 2000, so that twenty samples lie beyond each chunk's p99.
	p50PerChunk = 500
	p99PerChunk = 2000
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	gitSHA   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: rewrite_hot, rewrite_cold or answer_stored")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout (for the run fingerprint and scratch files)")
	flag.StringVar(&o.gitSHA, "git-sha", "unknown", "git commit of the checkout, when known")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil && !errors.Is(err, errWrongOutput) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record prints one descriptive JSON line, stamped with the
// fingerprint.
func record(fp fingerprint, kind string, body map[string]any) {
	body["record"] = kind
	body["fingerprint"] = fp
	line, _ := json.Marshal(body)
	fmt.Println(string(line))
}

func run(o options) (result, error) {
	fp := takeFingerprint(o)
	w, err := newWorkload(o.workload, o.seed, o.root)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if err := w.cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
		}
	}()

	tr := newTracer()
	var setups []float64
	var spent float64
	var st *stack
	for boot := 0; boot < maxSetupRounds && (boot < minSetupRounds || spent < setupBudget.Seconds()); boot++ {
		if o.trace && boot == 1 {
			break // the traced run reports no set-up time
		}
		if st != nil {
			if err := st.close(); err != nil {
				return result{}, err
			}
			st = nil
		}
		runtime.GC()
		start := time.Now()
		st, err = bootStack(func(i int) (engine.Config, error) { return w.config(boot, i) }, tr)
		if err != nil {
			return result{}, err
		}
		if err := w.load(st); err != nil {
			st.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[boot]
	}
	defer st.close()
	if err := w.verify(st); err != nil {
		return result{Metrics: map[string]metric{}}, err
	}

	var opIDs atomic.Uint32
	d := time.Duration(o.seconds * float64(time.Second))
	var res result
	if o.trace {
		res, err = tracedRun(o, fp, w, st, tr, &opIDs, d)
	} else {
		var win *window
		win, err = runWindow(st, w.stream, tr, &opIDs, d, false)
		res = endToEnd(fp, w, win, setups)
	}
	res.Correct = err == nil
	return res, err
}

// endToEnd assembles the -trace 0 result.
func endToEnd(fp fingerprint, w *workloadDef, win *window, setups []float64) result {
	lat := ofKind(win.samples, w.primary)
	p50, _, _ := chunkedQuantile(lat, 0.50, p50PerChunk, subWindows)
	p99, chunks, p99ok := chunkedQuantile(lat, 0.99, p99PerChunk, subWindows)
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {medianRate(win, subWindows), "1/s"},
		"p50_us":       {p50 / 1e3, "us"},
		"p99_us":       {p99 / 1e3, "us"},
		"heap_peak_mb": {float64(win.heapPeak) / (1 << 20), "MiB"},
	}
	detail := map[string]any{
		"workload":       w.name,
		"primary":        kindNames[w.primary],
		"window_s":       win.elapsed.Seconds(),
		"setups_s":       setups,
		"p99_chunks":     chunks,
		"wrong_outputs":  win.wrong,
		"p99_reportable": p99ok,
		"mean_ops_per_s": float64(win.ops) / win.elapsed.Seconds(),
		"failed_frac":    ratio(float64(win.failed), float64(win.ops)),
		"kinds":          kindSummary(win.samples),
	}
	record(fp, "end_to_end", detail)
	if !p99ok {
		fmt.Fprintf(os.Stderr, "perfbench: %d %s samples in %d chunks; fewer than ten lie beyond a chunk's p99\n", len(lat), kindNames[w.primary], chunks)
	}
	return result{Attempted: win.ops, Failed: win.failed, Metrics: m}
}

// kindSummary reports each request kind's sample count, p50 and p99
// (the p99 only when ten samples lie beyond it).
func kindSummary(samples []sample) map[string]any {
	out := make(map[string]any)
	for k := kind(0); k < numKinds; k++ {
		s := latencies(ofKind(samples, k))
		if len(s) == 0 {
			continue
		}
		p50, _ := quantile(s, 0.50)
		entry := map[string]any{"n": len(s), "p50_us": float64(p50) / 1e3}
		if p99, ok := quantile(s, 0.99); ok {
			entry["p99_us"] = float64(p99) / 1e3
		}
		out[kindNames[k]] = entry
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func tracePath(o options) string {
	return filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed))
}
