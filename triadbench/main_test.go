//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a live run re-executes itself as the server.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "server" {
		if err := serveChildMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "triadbench server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declaredMetrics reads BENCHMARK.json's metric names and units.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runBench runs the command and returns its exit code, standard output
// and standard error.
func runBench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSmoke runs every workload briefly, at a tenth of the live rates
// since other packages' tests share the host, and checks that the run
// passes its output checks and emits exactly the metrics BENCHMARK.json
// names, with their units. Short mode skips the traced runs.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	golden, err := loadSimGolden("")
	if err != nil {
		t.Fatal(err)
	}
	traces := []bool{false, true}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, workload := range []string{"stamp", "commit", "sim"} {
		for _, trace := range traces {
			t.Run(fmt.Sprintf("%s/trace=%v", workload, trace), func(t *testing.T) {
				dir := t.TempDir()
				res, err := runWorkload(options{
					workload:  workload,
					seed:      5,
					window:    time.Second,
					trace:     trace,
					traceOut:  filepath.Join(dir, "trace.json"),
					workDir:   dir,
					simGolden: golden,
					rateScale: 0.1,
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed < 0 {
					t.Errorf("result header %+v", res)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("metric %s = %v", name, m.Value)
					case !trace && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestWrongRecordFails shows that an output differing from the
// recorded one fails the command without printing a result.
func TestWrongRecordFails(t *testing.T) {
	g, err := loadSimGolden("")
	if err != nil {
		t.Fatal(err)
	}
	key := goldenKey(5, false)
	out, ok := g[key]
	if !ok {
		t.Fatalf("no record for %s", key)
	}
	out.Holdovers++
	g[key] = out
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(t.TempDir(), "wrong.json")
	if err := os.WriteFile(wrong, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runBench("--workload", "sim", "--seed", "5", "--seconds", "1",
		"--sim-golden", wrong, "--workdir", t.TempDir())
	if code == 0 {
		t.Fatalf("exit 0 with a wrong record; stdout:\n%s", stdout)
	}
	if strings.Contains(stdout, `"correct"`) {
		t.Errorf("a failed run printed a result:\n%s", stdout)
	}
	if !strings.Contains(stderr, "differ from the record") {
		t.Errorf("stderr does not name the check:\n%s", stderr)
	}
}

// TestSchedule checks that dueNanos and dueBy invert each other: each
// flow's request k falls due at dueNanos, not before.
func TestSchedule(t *testing.T) {
	st := &step{rate: 9000, dur: 2 * time.Second, flows: make([]*flow, genFlows)}
	for w := 0; w < genFlows; w++ {
		n := st.dueBy(w, int64(st.dur))
		if want := 9000 * 2 / genFlows; n < want || n > want+1 {
			t.Fatalf("flow %d: %d requests due, want about %d", w, n, want)
		}
		for k := 0; k < n; k += 97 {
			at := st.dueNanos(w, k)
			if got := st.dueBy(w, at+1000); got < k+1 {
				t.Errorf("flow %d request %d due at %d, but dueBy then is %d", w, k, at, got)
			}
			if got := st.dueBy(w, at-1000); got > k {
				t.Errorf("flow %d request %d due at %d, but dueBy just before is %d", w, k, at, got)
			}
		}
	}
}
