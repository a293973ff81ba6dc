//go:build linux

package main

import (
	"fmt"
	"io"
	"time"

	"triadtime/internal/experiment"
)

// simStepEvery is the traced sim run's sampling period: one event in
// simStepEvery is timed and leaves a span.
const simStepEvery = 64

// Per-layer metrics of the layers a workload does not run: reported as
// zero, so every traced run emits the full per-layer set.
var (
	simLayerMetrics = []metricName{
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.step_ns", "ns"}, {"sim.pending_max", "count"},
		{"simnet.sent", "count"}, {"simnet.delivered", "count"}, {"simnet.dropped", "count"},
		{"engine.ta_refs", "count"}, {"engine.peer_untaints", "count"}, {"engine.holdovers", "count"}, {"engine.no_majority", "count"},
		{"experiment.samples", "count"}, {"experiment.served_frac", "ratio"},
	}
	liveLayerMetrics = []metricName{
		{"transport.recv_ns_per_dgram", "ns"}, {"transport.recv_dgrams_per_call", "count"},
		{"transport.send_ns_per_dgram", "ns"}, {"transport.send_dgrams_per_call", "count"}, {"transport.send_errors", "count"},
		{"wire.open_ns", "ns"}, {"wire.seal_ns", "ns"}, {"wire.open_reject_frac", "ratio"},
		{"serve.submit_ns", "ns"}, {"serve.drain_self_ns_per_req", "ns"}, {"serve.reqs_per_batch", "count"},
		{"serve.queue_wait_p50_us", "us"}, {"serve.queue_wait_p99_us", "us"}, {"serve.shed_frac", "ratio"},
		{"clock.trustednow_ns", "ns"}, {"clock.vouch_ns", "ns"}, {"clock.calls_per_req", "count"},
		{"tsa.issue_ns", "ns"}, {"tsa.tokens_per_req", "count"},
		{"commit.lock_ns", "ns"}, {"commit.unlock_ns", "ns"}, {"commit.status_ns", "ns"},
		{"commit.persist_count", "count"}, {"commit.persist_ns", "ns"},
		{"loadgen.late_p99_us", "us"}, {"loadgen.window_p99_us", "us"}, {"loadgen.achieved_frac", "ratio"}, {"loadgen.cpu_ns_per_req", "ns"},
		{"failed_frac", "ratio"},
	}
)

// metricName names a metric and its unit.
type metricName struct{ name, unit string }

func addZero(res *result, ms []metricName) {
	for _, m := range ms {
		res.add(m.name, 0, m.unit)
	}
}

// simStepper advances a cluster event by event, timing one event in
// simStepEvery, and leaves spans: one per simulated second, with the
// sampled events inside it as children.
type simStepper struct {
	tr            *tracer
	events, timed int64
	timedNs       int64
	pendingMax    int
	wall          time.Duration
}

// step advances c by d. A sentinel event at the deadline ends the
// slice; events keep their (time, sequence) order, so the run is the
// same as Cluster.RunFor's.
func (s *simStepper) step(c *experiment.Cluster, d time.Duration) {
	t0 := s.tr.now()
	slice := s.tr.add("sim.slice", t0, t0, -1, 0)
	done := false
	c.Sched.At(c.Sched.Now().Add(d), func() { done = true })
	for !done {
		s.events++
		if s.events%simStepEvery != 0 {
			c.Sched.Step()
			continue
		}
		e0 := s.tr.now()
		c.Sched.Step()
		e1 := s.tr.now()
		s.timed++
		s.timedNs += e1 - e0
		s.pendingMax = max(s.pendingMax, c.Sched.Pending())
		s.tr.add("sim.step", e0, e1, slice, 0)
	}
	s.events-- // the sentinel
	t1 := s.tr.now()
	s.wall += time.Duration(t1 - t0)
	if slice >= 0 {
		s.tr.mu.Lock()
		s.tr.spans[slice].End = t1
		s.tr.mu.Unlock()
	}
}

// runSimTraced runs one untraced pair for reference, then traced pairs
// until the window is used up, and reports the sim layers' metrics.
func runSimTraced(opt options, report io.Writer) (result, error) {
	seed := opt.seed % simSeeds
	first := map[string]simOutputs{}
	var refWall time.Duration
	for _, hardened := range []bool{false, true} {
		r, err := runSimOnce(seed, hardened, func(c *experiment.Cluster, d time.Duration) { c.RunFor(d) })
		if err != nil {
			return result{}, err
		}
		if err := checkSimOutputs(r.outputs, goldenKey(seed, hardened), opt.simGolden, first); err != nil {
			return result{}, fmt.Errorf("%w: %v", errCheck, err)
		}
		for _, sl := range r.slices {
			refWall += sl
		}
	}

	st := &simStepper{tr: newTracer()}
	var sum simOutputs
	pairs := 0
	deadline := time.Now().Add(opt.window)
	for pairs == 0 || time.Now().Before(deadline) {
		for _, hardened := range []bool{false, true} {
			r, err := runSimOnce(seed, hardened, st.step)
			if err != nil {
				return result{}, err
			}
			if err := checkSimOutputs(r.outputs, goldenKey(seed, hardened), opt.simGolden, first); err != nil {
				return result{}, fmt.Errorf("%w: %v", errCheck, err)
			}
			if pairs == 0 {
				sum = addOutputs(sum, r.outputs)
			}
		}
		pairs++
	}
	if err := st.tr.write(opt.traceOut); err != nil {
		return result{}, err
	}
	res := newResult(int64(2*pairs), 0)
	eventsPerPair := float64(st.events) / float64(pairs)
	res.add("sim.events", eventsPerPair, "count")
	res.add("sim.events_per_s", float64(st.events)/st.wall.Seconds(), "1/s")
	res.add("sim.step_ns", float64(st.timedNs)/float64(max(st.timed, 1)), "ns")
	res.add("sim.pending_max", float64(st.pendingMax), "count")
	res.add("simnet.sent", float64(sum.Sent), "count")
	res.add("simnet.delivered", float64(sum.Delivered), "count")
	res.add("simnet.dropped", float64(sum.Dropped), "count")
	res.add("engine.ta_refs", float64(sum.TARefs), "count")
	res.add("engine.peer_untaints", float64(sum.PeerUntaints), "count")
	res.add("engine.holdovers", float64(sum.Holdovers), "count")
	res.add("engine.no_majority", float64(sum.NoMajority), "count")
	res.add("experiment.samples", float64(sum.Samples), "count")
	res.add("experiment.served_frac", float64(sum.Served)/float64(max(sum.Samples, 1)), "ratio")
	addZero(&res, liveLayerMetrics)

	nodeSeconds := 2 * simNodes * simDuration.Seconds()
	fmt.Fprintf(report, "sim, both protocols, per pair of runs: %.0f events, %.0f simulated packets\n", eventsPerPair, float64(sum.Delivered))
	fmt.Fprintf(report, "tracing overhead: sim_node_s_per_s %.0f traced vs %.0f untraced\n",
		nodeSeconds*float64(pairs)/st.wall.Seconds(), nodeSeconds/refWall.Seconds())
	fmt.Fprintf(report, "spans: %s\n", opt.traceOut)
	return res, nil
}

// addOutputs sums the count fields of two runs' outputs.
func addOutputs(a, b simOutputs) simOutputs {
	a.Sent += b.Sent
	a.Delivered += b.Delivered
	a.Dropped += b.Dropped
	a.TARefs += b.TARefs
	a.PeerUntaints += b.PeerUntaints
	a.Holdovers += b.Holdovers
	a.NoMajority += b.NoMajority
	a.Samples += b.Samples
	a.Served += b.Served
	return a
}
