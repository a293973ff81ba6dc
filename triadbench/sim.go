//go:build linux

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"triadtime/internal/experiment"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// The sim workload is one partition of the scale1k topology: 5 regions
// of 10 nodes, one Time Authority per region (so every node runs quorum
// calibration across the WAN), Triad-like AEXs, streaming probes, and a
// 60s isolation of region 0 that forces Degraded holdover. Both the
// original and the hardened protocol run it for simDuration of
// simulated time, on one goroutine.
const (
	simRegions        = 5
	simNodesPerRegion = 10
	simNodes          = simRegions * simNodesPerRegion
	simDuration       = 180 * time.Second
	simSlice          = time.Second
	simMonitorTicks   = 150_000_000 // the long-run INC window scale1k uses
	simWANBase        = 20 * time.Millisecond
	simWANStep        = 5 * time.Millisecond
	simIsolateFrom    = 90 * time.Second
	simIsolateTo      = 150 * time.Second
	// simSeeds is how many distinct cluster seeds the workload draws
	// from: --seed maps onto seed mod simSeeds, and simgolden.json
	// records the expected outputs of every one of them.
	simSeeds = 32
)

// simOutputs is what one protocol's run must reproduce exactly for its
// seed: the behaviour the speed metrics may not change.
type simOutputs struct {
	MinAvailability float64 `json:"min_availability"`
	WorstCorrect    float64 `json:"worst_correct"`
	DriftP50        float64 `json:"drift_p50_s"`
	DriftP99        float64 `json:"drift_p99_s"`
	Calibrated      int     `json:"calibrated"`
	Holdovers       int     `json:"holdovers"`
	NoMajority      int     `json:"no_majority"`
	TARefs          int     `json:"ta_refs"`
	PeerUntaints    int     `json:"peer_untaints"`
	Samples         int     `json:"samples"`
	Served          int     `json:"served"`
	Sent            int     `json:"sent"`
	Delivered       int     `json:"delivered"`
	Dropped         int     `json:"dropped"`
}

// simGolden maps "<seed>/<protocol>" to the recorded outputs.
type simGolden map[string]simOutputs

//go:embed simgolden.json
var simGoldenJSON []byte

// loadSimGolden reads the record at path, or the built-in one if path
// is empty.
func loadSimGolden(path string) (simGolden, error) {
	b, name := simGoldenJSON, "simgolden.json"
	if path != "" {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		name = path
	}
	var g simGolden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return g, nil
}

func goldenKey(seed uint64, hardened bool) string {
	return fmt.Sprintf("%d/%s", seed, protocolName(hardened))
}

func protocolName(hardened bool) string {
	if hardened {
		return "hardened"
	}
	return "original"
}

// simTopology is the partition's WAN shape: node addresses 1..N laid
// out region-major, authority i in region i.
type simTopology struct{}

func (simTopology) regionOf(a simnet.Addr) int {
	if a >= experiment.TAAddr {
		return int(a - experiment.TAAddr)
	}
	return (int(a) - 1) / simNodesPerRegion
}

// link gives inter-region pairs an asymmetric WAN delay (no two
// directed region pairs share one); intra-region pairs keep the LAN
// default.
func (t simTopology) link(from, to simnet.Addr) (simnet.Link, bool) {
	rf, rt := t.regionOf(from), t.regionOf(to)
	if rf == rt {
		return simnet.Link{}, false
	}
	return simnet.Link{
		Base:        simWANBase + time.Duration(rf*simRegions+rt)*simWANStep,
		JitterSigma: 1.0,
		JitterScale: 200 * time.Microsecond,
	}, true
}

// isolation drops every packet crossing region 0's boundary while
// active.
type isolation struct {
	topo   simTopology
	active bool
}

func (m *isolation) Process(_ simtime.Instant, pkt simnet.Packet) simnet.Verdict {
	if !m.active {
		return simnet.Verdict{}
	}
	return simnet.Verdict{Drop: (m.topo.regionOf(pkt.From) == 0) != (m.topo.regionOf(pkt.To) == 0)}
}

// buildSimCluster builds and starts one protocol's cluster.
func buildSimCluster(seed uint64, hardened bool) (*experiment.Cluster, error) {
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed:         seed,
		Nodes:        simNodes,
		Authorities:  simRegions,
		MonitorTicks: simMonitorTicks,
		Streaming:    true,
		Hardened:     hardened,
	})
	if err != nil {
		return nil, err
	}
	var topo simTopology
	c.Net.SetLinkPolicy(topo.link)
	for i := range c.Nodes {
		c.SetEnv(i, experiment.EnvTriadLike)
	}
	iso := &isolation{topo: topo}
	c.Net.AttachMiddlebox(iso)
	c.At(simIsolateFrom, func() { iso.active = true })
	c.At(simIsolateTo, func() { iso.active = false })
	c.Start()
	return c, nil
}

// collectSimOutputs reduces a finished cluster and releases its probes.
func collectSimOutputs(c *experiment.Cluster) simOutputs {
	out := simOutputs{MinAvailability: 1, WorstCorrect: 1}
	var rollup experiment.NodeProbe
	for i, n := range c.Nodes {
		p := c.Probes[i]
		rollup.Merge(p)
		out.MinAvailability = math.Min(out.MinAvailability, c.Availability(i))
		out.WorstCorrect = math.Min(out.WorstCorrect, p.CorrectAvailability())
		if c.FinalFCalib(i) != 0 {
			out.Calibrated++
		}
		cnt := n.Counters()
		out.Holdovers += cnt.Holdovers
		out.NoMajority += cnt.QuorumNoMajority
		out.TARefs += cnt.TAReferences
		out.PeerUntaints += cnt.PeerUntaints
	}
	out.DriftP50 = rollup.Drift.Quantile(0.50)
	out.DriftP99 = rollup.Drift.Quantile(0.99)
	out.Samples = rollup.Samples
	out.Served = rollup.Served
	out.Sent, out.Delivered, out.Dropped = c.Net.Stats()
	c.ReleaseProbes()
	return out
}

// checkSimOutputs compares one run's outputs with the recorded ones
// and with the first run of the same seed and protocol in this process.
func checkSimOutputs(got simOutputs, key string, golden simGolden, first map[string]simOutputs) error {
	if prev, ok := first[key]; ok && prev != got {
		return fmt.Errorf("sim %s: not deterministic: %+v then %+v", key, prev, got)
	}
	first[key] = got
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("sim %s: no recorded outputs", key)
	}
	if want != got {
		return fmt.Errorf("sim %s: outputs differ from the record:\n  want %+v\n  got  %+v", key, want, got)
	}
	if got.Calibrated == 0 || got.Samples == 0 || got.Served == 0 {
		return fmt.Errorf("sim %s: degenerate run %+v", key, got)
	}
	return nil
}

// simRun is one protocol's timed run.
type simRun struct {
	setup   time.Duration
	slices  []time.Duration // wall time per simulated second
	outputs simOutputs
}

// runSimOnce builds, runs and reduces one protocol's cluster, timing
// set-up and every simulated second.
func runSimOnce(seed uint64, hardened bool, step func(c *experiment.Cluster, d time.Duration)) (simRun, error) {
	// Collect the previous run's garbage first, so set-up does not pay
	// for it.
	runtime.GC()
	t0 := time.Now()
	c, err := buildSimCluster(seed, hardened)
	if err != nil {
		return simRun{}, err
	}
	r := simRun{setup: time.Since(t0)}
	r.slices = make([]time.Duration, 0, int(simDuration/simSlice))
	for elapsed := time.Duration(0); elapsed < simDuration; elapsed += simSlice {
		s := time.Now()
		step(c, simSlice)
		r.slices = append(r.slices, time.Since(s))
	}
	r.outputs = collectSimOutputs(c)
	return r, nil
}

// runSimWorkload runs both protocols on successive cluster seeds,
// starting from --seed, until the measuring window is used up (at
// least one pair), and reports the end-to-end metrics. Spreading a run
// over several cluster seeds keeps one seed's event count from setting
// its throughput.
func runSimWorkload(opt options) (result, error) {
	golden := opt.simGolden
	first := map[string]simOutputs{}
	var setups, slices []float64
	var delivered, simNodeSeconds float64
	var wall time.Duration
	runs := 0
	cpu0 := processCPU()
	deadline := time.Now().Add(opt.window)
	for pair := uint64(0); pair == 0 || time.Now().Before(deadline); pair++ {
		seed := (opt.seed + pair) % simSeeds
		for _, hardened := range []bool{false, true} {
			r, err := runSimOnce(seed, hardened, func(c *experiment.Cluster, d time.Duration) { c.RunFor(d) })
			if err != nil {
				return result{}, err
			}
			if err := checkSimOutputs(r.outputs, goldenKey(seed, hardened), golden, first); err != nil {
				return result{}, fmt.Errorf("%w: %v", errCheck, err)
			}
			setups = append(setups, r.setup.Seconds())
			for _, s := range r.slices {
				slices = append(slices, float64(s.Microseconds())+float64(s%time.Microsecond)/1e3)
				wall += s
			}
			delivered += float64(r.outputs.Delivered)
			simNodeSeconds += simNodes * simDuration.Seconds()
			runs++
		}
	}
	cpu := processCPU() - cpu0
	res := newResult(int64(runs), 0)
	res.add("setup_s", median(setups), "s")
	res.add("p50_us", quantile(slices, 0.50), "us")
	res.add("p99_us", quantile(slices, 0.99), "us")
	res.add("server_cpu_ns_per_req", float64(cpu.Nanoseconds())/delivered, "ns")
	res.add("peak_rss_mb", selfPeakRSSMiB(), "MiB")
	res.add("sim_node_s_per_s", simNodeSeconds/wall.Seconds(), "node-s/s")
	return res, nil
}

// recordSimGolden runs every cluster seed once per protocol and writes
// the outputs as the new record.
func recordSimGolden(path string) error {
	g := simGolden{}
	for seed := uint64(0); seed < simSeeds; seed++ {
		for _, hardened := range []bool{false, true} {
			r, err := runSimOnce(seed, hardened, func(c *experiment.Cluster, d time.Duration) { c.RunFor(d) })
			if err != nil {
				return err
			}
			g[goldenKey(seed, hardened)] = r.outputs
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
