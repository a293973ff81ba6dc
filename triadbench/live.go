//go:build linux

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"triadtime/internal/commit"
	"triadtime/internal/serve"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// liveSpec is a live workload's fixed shape.
type liveSpec struct {
	// fixedRate is the offered rate (req/s) the latency, CPU and
	// failure metrics are measured at: well inside capacity on a
	// 2-core host shared by server and generator.
	fixedRate float64
	// commit enables the TSA key and the vault (commit-size datagrams).
	commit bool
}

// liveSpec is the workload's shape with its rates scaled by
// opt.rateScale.
func (opt options) liveSpec() liveSpec {
	spec := liveSpecs[opt.workload]
	spec.fixedRate *= opt.rateScale
	return spec
}

var liveSpecs = map[string]liveSpec{
	"stamp":  {fixedRate: 50_000},
	"commit": {fixedRate: 30_000, commit: true},
}

func (s liveSpec) maxReq() int {
	if s.commit {
		return serve.SealedCommitRequestSize
	}
	return serve.SealedRequestSize
}

func (s liveSpec) maxResp() int {
	if s.commit {
		return serve.SealedCommitResponseSize
	}
	return serve.SealedResponseSize
}

// Live run structure.
const (
	// liveSetups server incarnations are launched per run; set-up
	// time is their median and the last one is measured.
	liveSetups     = 3
	readyTimeout   = 60 * time.Second
	warmupDur      = 500 * time.Millisecond
	minAchieved    = 0.99
	maxLateP99US   = 5000
	poolTokens     = 256
	ripeAfter      = 200 * time.Millisecond
	ripenedChecked = 16
	ripenTimeout   = 10 * time.Second
)

// liveServer is a ready server incarnation with its workload mix and
// the sealer identities its flows have used.
type liveServer struct {
	*serverProc
	ready time.Time // first OK answer
	ids   identities
	mix   mix
}

// launchReady starts an incarnation and waits for its first OK
// response; the returned duration is its set-up time.
func launchReady(opt options, spec liveSpec, traced bool) (*liveServer, time.Duration, error) {
	traceOut := ""
	if traced {
		traceOut = opt.traceOut
	}
	p, err := startServer(opt.workDir, spec.commit, spec.commit, traceOut)
	if err != nil {
		return nil, 0, err
	}
	s := &liveServer{serverProc: p}
	if err := s.waitReady(spec); err != nil {
		p.stop()
		return nil, 0, err
	}
	return s, s.ready.Sub(p.started), nil
}

// waitReady polls with stamp requests until the node, done
// calibrating, answers one OK.
func (s *liveServer) waitReady(spec liveSpec) error {
	f, err := newFlow(s.addr, s.cfg.ClientKey, s.ids.take(1), 0, 1, spec.maxReq())
	if err != nil {
		return err
	}
	defer f.conn.Close()
	for seq := uint64(0); time.Since(s.started) < readyTimeout; seq++ {
		got, err := f.exchange([][]byte{wire.TimeRequest{ClientID: 1, Seq: seq}.Marshal()}, 5*time.Millisecond)
		if err != nil {
			return err
		}
		for _, pt := range got {
			if r, err := wire.UnmarshalTimeResponse(pt); err == nil && r.Status == wire.StatusOK {
				s.ready = time.Now()
				return nil
			}
		}
	}
	return fmt.Errorf("server not ready after %v", readyTimeout)
}

// newMix builds the workload's request mix; for commit it first mints
// the token pool against this incarnation.
func (s *liveServer) newMix(spec liveSpec, seed uint64) error {
	sm := newStampMix(seed)
	if !spec.commit {
		s.mix = sm
		return nil
	}
	stamper, err := tsa.New(tsa.ClockFunc(func() (int64, error) { return 0, errors.New("verify only") }), s.cfg.TSAKey)
	if err != nil {
		return err
	}
	pool, err := s.mintPool(seed)
	if err != nil {
		return err
	}
	s.mix = &commitMix{stampMix: sm, seed: seed, pool: pool, stamper: stamper}
	return nil
}

// mintPool locks poolTokens commitments: even ones ripen after
// ripeAfter, odd ones stay sealed for an hour. It returns once the
// ripe half is ripe on the node's clock too.
func (s *liveServer) mintPool(seed uint64) ([]poolToken, error) {
	f, err := newFlow(s.addr, s.cfg.ClientKey, s.ids.take(1), 0, 1, serve.SealedCommitRequestSize)
	if err != nil {
		return nil, err
	}
	defer f.conn.Close()
	now := time.Now().UnixNano()
	pts := make([][]byte, poolTokens)
	for i := range pts {
		req := wire.CommitRequest{Kind: wire.KindCommitLock, ClientID: splitmix(seed ^ 0x5eed), Seq: uint64(i), UnlockNanos: now + int64(time.Hour)}
		if i%2 == 0 {
			req.UnlockNanos = now + int64(ripeAfter)
		}
		binary.BigEndian.PutUint64(req.Hash[:], splitmix(seed+uint64(i)))
		pts[i] = req.Marshal()
	}
	got, err := f.exchange(pts, 5*time.Second)
	if err != nil {
		return nil, err
	}
	pool := make([]poolToken, poolTokens)
	for i := range pool {
		r, err := wire.UnmarshalCommitResponse(got[uint64(i)])
		if err != nil || r.Verdict != wire.CommitOK {
			return nil, fmt.Errorf("set-up lock %d: verdict %v, err %v", i, r.Verdict, err)
		}
		pool[i] = poolToken{raw: r.Token, unlock: r.UnlockNanos, ripe: i%2 == 0}
	}
	time.Sleep(time.Until(time.Unix(0, now+int64(ripeAfter)+stampSlack)))
	return pool, nil
}

// offer runs one fixed-rate open-loop step against this incarnation.
func (s *liveServer) offer(spec liveSpec, rate float64, dur time.Duration) (*step, error) {
	return runStep(s, spec, rate, dur)
}

// measureWindow runs the fixed-rate window after a warm-up, and
// rejects it if the generator fell behind.
func (s *liveServer) measureWindow(spec liveSpec, dur time.Duration) (*step, error) {
	if _, err := s.offer(spec, spec.fixedRate, warmupDur); err != nil {
		return nil, err
	}
	st, err := s.offer(spec, spec.fixedRate, dur)
	if err != nil {
		return nil, err
	}
	logStep("window", st)
	if a, late := st.achievedFrac(), quantile(st.lateUS, 0.99); a < minAchieved || late > maxLateP99US {
		return nil, fmt.Errorf("invalid run: the generator fell behind (achieved %.4f of the schedule, late p99 %.0fus)", a, late)
	}
	return st, nil
}

// checkLocksRipen unlocks the first locks minted in the window once
// they are ripe: each must be granted. The node's clock may lag the
// generator's, so an unlock refused as still sealed (at a trusted time
// before its unlock time) is retried once the node's clock has had
// time to get there.
func (s *liveServer) checkLocksRipen(st *step) error {
	m := s.mix.(*commitMix)
	var toks [][commit.TokenSize]byte
	var latest int64
	for _, f := range st.flows {
		for k := 0; k < f.sent && len(toks) < ripenedChecked; k++ {
			if f.outcome[k] == outOK && m.op(f.w, k) == opLock {
				var tok [commit.TokenSize]byte
				copy(tok[:], f.token(k))
				t, _ := commit.UnmarshalToken(tok[:])
				latest = max(latest, t.UnlockNanos)
				toks = append(toks, tok)
			}
		}
	}
	if len(toks) == 0 {
		return fmt.Errorf("%w: no lock was minted in the window", errCheck)
	}
	f, err := newFlow(s.addr, s.cfg.ClientKey, s.ids.take(1), 0, 1, serve.SealedCommitRequestSize)
	if err != nil {
		return err
	}
	defer f.conn.Close()
	time.Sleep(time.Until(time.Unix(0, latest)))
	deadline := time.Now().Add(ripenTimeout)
	for attempt := uint64(0); len(toks) > 0; attempt++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d ripe locks still refused after %v", errCheck, len(toks), ripenTimeout)
		}
		pts := make([][]byte, len(toks))
		for i, tok := range toks {
			pts[i] = wire.CommitRequest{Kind: wire.KindCommitUnlock, Seq: attempt<<16 | uint64(i), Token: tok}.Marshal()
		}
		got, err := f.exchange(pts, time.Second)
		if err != nil {
			return err
		}
		var again [][commit.TokenSize]byte
		var wait int64
		for i, tok := range toks {
			r, err := wire.UnmarshalCommitResponse(got[attempt<<16|uint64(i)])
			switch {
			case err != nil: // lost: ask again
				again = append(again, tok)
			case r.Verdict == wire.CommitOK:
			case r.Verdict == wire.CommitSealed && r.Nanos < r.UnlockNanos:
				again = append(again, tok)
				wait = max(wait, r.UnlockNanos-r.Nanos)
			default:
				return fmt.Errorf("%w: ripe lock: verdict %v at trusted %d, unlock %d", errCheck, r.Verdict, r.Nanos, r.UnlockNanos)
			}
		}
		toks = again
		time.Sleep(time.Duration(wait) + 10*time.Millisecond)
	}
	return nil
}

// logStep prints a step's summary on standard error.
func logStep(what string, st *step) {
	lat := st.latUS
	var parts []string
	for _, xs := range st.latPart {
		parts = append(parts, fmt.Sprintf("%.0f", quantile(xs, 0.99)))
	}
	fmt.Fprintf(os.Stderr, "%s: rate %.0f sent %d ok %d failed %d p50 %.0fus p99 %.0fus (parts %s) late-p99 %.0fus achieved %.4f\n",
		what, st.rate, st.attempted, st.ok, st.failed(), quantile(lat, 0.5), quantile(lat, 0.99),
		strings.Join(parts, " "), quantile(st.lateUS, 0.99), st.achievedFrac())
}

// runLiveWorkload is the untraced live measurement: set-up several
// times, then the fixed-rate window.
func runLiveWorkload(opt options) (result, error) {
	if err := pinGenerator(); err != nil {
		return result{}, err
	}
	spec := opt.liveSpec()
	s, setups, err := launchSetupsN(opt, spec, liveSetups, false)
	if err != nil {
		return result{}, err
	}
	defer s.stop()
	w, err := s.measureWindow(spec, opt.window)
	if err != nil {
		return result{}, err
	}
	if spec.commit {
		if err := s.checkLocksRipen(w); err != nil {
			return result{}, err
		}
	}
	rss, err := s.stop()
	if err != nil {
		return result{}, err
	}
	cpuPerReq := w.serverCPUPerReq()
	res := newResult(int64(w.attempted), int64(w.failed()))
	res.add("setup_s", median(setups), "s")
	res.add("p50_us", w.latQuantile(0.50), "us")
	res.add("p99_us", w.latQuantile(0.99), "us")
	res.add("server_cpu_ns_per_req", cpuPerReq, "ns")
	res.add("peak_rss_mb", rss, "MiB")
	// One serving node's seconds per second of its CPU at the fixed
	// rate: how many such nodes one core could run.
	res.add("sim_node_s_per_s", 1e9/(spec.fixedRate*cpuPerReq), "node-s/s")
	return res, nil
}

// launchSetupsN launches n incarnations, each with fresh keys, and
// keeps the last one running with its workload mix built.
func launchSetupsN(opt options, spec liveSpec, n int, traced bool) (*liveServer, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := launchReady(opt, spec, traced)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == n-1 {
			if err := s.newMix(spec, opt.seed); err != nil {
				s.stop()
				return nil, nil, err
			}
			return s, setups, nil
		}
		if _, err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}
