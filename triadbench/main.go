//go:build linux

// Command triadbench is triadtime's end-to-end benchmark. It runs one
// workload per invocation and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. Any failed output
// check exits non-zero without printing a result. See README.md for
// the workloads, metrics and the traced run.
//
//	go run ./triadbench --workload stamp --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(roleEnv) == "server" {
		if err := serveChildMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "triadbench server:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload  string
	seed      uint64
	window    time.Duration // --seconds: how long the run measures
	trace     bool
	traceOut  string // where the traced run writes its spans
	workDir   string // scratch directory for anchors and traces
	simGolden simGolden
	// rateScale scales a live workload's offered rates; 1 but in
	// smoke tests, which share the host with other packages' tests.
	rateScale float64
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("triadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: stamp, commit or sim")
	seed := fs.Uint64("seed", 1, "workload seed; the generated inputs derive from it")
	seconds := fs.Int("seconds", 20, "how long the run measures, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workDir := fs.String("workdir", ".bench_build", "scratch directory for anchor files and span dumps")
	goldenPath := fs.String("sim-golden", "", "check sim outputs against this record instead of the built-in one")
	record := fs.String("record-sim-golden", "", "re-run every sim seed and write the outputs to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordSimGolden(*record); err != nil {
			fmt.Fprintln(stderr, "triadbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "triadbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *traceFlag == 1,
		workDir:   *workDir,
		rateScale: 1,
	}
	var err error
	if opt.simGolden, err = loadSimGolden(*goldenPath); err != nil {
		fmt.Fprintln(stderr, "triadbench:", err)
		return 1
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "triadbench:", err)
		return 1
	}
	opt.traceOut = filepath.Join(opt.workDir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))

	res, err := runWorkload(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "triadbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "triadbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func runWorkload(opt options, report io.Writer) (result, error) {
	switch opt.workload {
	case "stamp", "commit":
		if opt.trace {
			return runLiveTraced(opt, report)
		}
		return runLiveWorkload(opt)
	case "sim":
		if opt.trace {
			return runSimTraced(opt, report)
		}
		return runSimWorkload(opt)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want stamp, commit or sim)", opt.workload)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. It is only printed when
// every output check passed, so Correct is always true.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int64) result {
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// quantile returns the q-quantile of xs by the nearest-rank rule,
// sorting xs in place. The benchmark keeps its own samples and
// quantiles so the measurement does not move with the code it
// measures.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMiB is this process's peak resident set size.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// errCheck marks a failed output check: the run's numbers must not be
// reported.
var errCheck = errors.New("output check failed")
