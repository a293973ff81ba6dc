//go:build linux

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"triadtime"
	"triadtime/internal/commit"
	"triadtime/internal/serve"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// The traced live run hosts the node in the benchmark process and
// drives the serving layers itself, with the batch and tick structure
// of serve.LiveServer: a receive goroutine (RecvBatch → OpenDatagramInto
// → Submit/SubmitCommit) and one drain goroutine per shard (Drain on a
// 1ms tick → SealDatagramAppend → SendBatch). The clock, the vouch
// function and the vault's anchor store are timing wrappers handed to
// serve.Config and commit.Config. Every call is timed into exact
// per-layer sums; 1 in spanEvery requests and batches also leaves
// spans.
const (
	spanEvery   = 64
	traceShards = 4
	traceTick   = time.Millisecond
)

// Indices of the traced server's per-layer counters: busy nanoseconds
// and call counts at each layer boundary.
const (
	cRecvNs = iota
	cRecvCalls
	cRecvDgrams
	cSendNs
	cSendCalls
	cSendDgrams
	cSendErrors
	cOpenNs
	cOpens
	cOpenRejects
	cSealNs
	cSeals
	cSubmitNs
	cSubmits
	cDrainNs
	cDrainBatches
	cDrained
	cClockNs
	cClockCalls
	cVouchNs
	cVouchCalls
	cPersistNs
	cPersists
	numCounts
)

// layerCounts accumulates the counters; the serving goroutines add to
// them concurrently.
type layerCounts [numCounts]atomic.Int64

// layerSnapshot is a plain copy of layerCounts, for deltas.
type layerSnapshot [numCounts]int64

func (c *layerCounts) snapshot() layerSnapshot {
	var s layerSnapshot
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

func (a layerSnapshot) sub(b layerSnapshot) layerSnapshot {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// tracedServer is the in-process serving endpoint of the traced run.
type tracedServer struct {
	srv     *serve.Server[transport.Sockaddr]
	vault   *commit.Vault
	stamper *tsa.Stamper
	conn    *net.UDPConn
	bc      *transport.BatchConn
	tr      *tracer
	lc      layerCounts
	maxReq  int
	maxResp int

	// Queue waits of sampled requests: submit time by request key,
	// then the measured waits in microseconds.
	waitMu   sync.Mutex
	submitAt map[uint64]int64
	waitsUS  []float64

	done    chan struct{}
	recvWG  sync.WaitGroup
	drainWG sync.WaitGroup
}

func reqKey(clientID, seq uint64) uint64 { return clientID ^ seq<<1 }

// startTracedServer serves clients from node with timing wrappers
// around every layer boundary.
func startTracedServer(node *triadtime.LiveNode, keys childConfig, spec liveSpec, tr *tracer) (*tracedServer, error) {
	ts := &tracedServer{tr: tr, maxReq: spec.maxReq(), maxResp: spec.maxResp(), submitAt: map[uint64]int64{}, done: make(chan struct{})}
	clock := func() (int64, error) {
		t0 := tr.now()
		v, err := node.TrustedNanos()
		t1 := tr.now()
		ts.lc[cClockNs].Add(t1 - t0)
		if n := ts.lc[cClockCalls].Add(1); n%spanEvery == 0 {
			tr.add("clock.trustednow", t0, t1, -1, 0)
		}
		return v, err
	}
	cfg := serve.Config{Shards: traceShards, Clock: serve.ClockFunc(clock)}
	if spec.commit {
		var err error
		if ts.stamper, err = tsa.New(tsa.ClockFunc(node.TrustedNanos), keys.TSAKey); err != nil {
			return nil, err
		}
		vouch := func() bool {
			t0 := tr.now()
			ok := node.State() == triadtime.StateOK
			t1 := tr.now()
			ts.lc[cVouchNs].Add(t1 - t0)
			if n := ts.lc[cVouchCalls].Add(1); n%spanEvery == 0 {
				tr.add("clock.vouch", t0, t1, -1, 0)
			}
			return ok
		}
		ts.vault, err = commit.Open(commit.Config{
			Clock: commit.ClockFunc(clock),
			Vouch: vouch,
			Key:   keys.TSAKey,
			Store: &timedStore{inner: commit.NewFileStore(keys.Anchor), ts: ts},
		})
		if err != nil {
			return nil, err
		}
		cfg.Stamper, cfg.Vault = ts.stamper, ts.vault
	}
	var err error
	if ts.srv, err = serve.New[transport.Sockaddr](cfg); err != nil {
		return nil, err
	}
	if ts.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	_ = ts.conn.SetReadBuffer(1 << 20)
	_ = ts.conn.SetWriteBuffer(1 << 20)
	if ts.bc, err = transport.NewBatchConn(ts.conn); err != nil {
		ts.conn.Close()
		return nil, err
	}
	_ = ts.bc.EnableGSO(ts.maxResp) // best effort, as serve.LiveServer does
	// Identities as serve.LiveServer assigns them: drain shard i seals
	// as nodeID+i, the receive goroutine's shed path as nodeID+shards.
	idents := traceShards + 1
	drainSealers := make([]*wire.Sealer, traceShards)
	for i := range drainSealers {
		if drainSealers[i], err = wire.NewSealerShard(keys.ClientKey, uint32(nodeID), i, idents); err != nil {
			ts.conn.Close()
			return nil, err
		}
	}
	shedSealer, err := wire.NewSealerShard(keys.ClientKey, uint32(nodeID), traceShards, idents)
	if err != nil {
		ts.conn.Close()
		return nil, err
	}
	opener, err := wire.NewOpener(keys.ClientKey)
	if err != nil {
		ts.conn.Close()
		return nil, err
	}
	ts.recvWG.Add(1)
	go ts.recvLoop(opener, shedSealer)
	for i := range drainSealers {
		ts.drainWG.Add(1)
		go ts.drainLoop(i, drainSealers[i])
	}
	return ts, nil
}

func (ts *tracedServer) addr() *net.UDPAddr { return ts.conn.LocalAddr().(*net.UDPAddr) }

// close stops intake, answers everything admitted, and closes the
// socket, in serve.LiveServer's order.
func (ts *tracedServer) close() {
	_ = transport.InterruptReads(ts.conn)
	ts.recvWG.Wait()
	close(ts.done)
	ts.drainWG.Wait()
	ts.conn.Close()
}

// recvLoop is serve.LiveServer's receive path with every call timed.
// It owns its thread so the receive call's CPU time, not its wait for
// traffic, is what transport.recv_ns_per_dgram counts.
func (ts *tracedServer) recvLoop(opener *wire.Opener, shedSealer *wire.Sealer) {
	defer ts.recvWG.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	in := transport.NewBatch(256, ts.maxReq+1)
	out := transport.NewBatch(256, ts.maxResp)
	scratch := make([]byte, 0, wire.CommitRequestSize)
	var plain [wire.CommitResponseSize]byte
	for batch := uint64(0); ; batch++ {
		c0 := threadCPU()
		n, err := ts.bc.RecvBatch(in)
		c1 := threadCPU()
		if err != nil {
			return
		}
		end := ts.tr.now()
		ts.lc[cRecvNs].Add(c1 - c0)
		ts.lc[cRecvCalls].Add(1)
		ts.lc[cRecvDgrams].Add(int64(n))
		parent := int32(-1)
		if batch%spanEvery == 0 {
			parent = ts.tr.add("transport.recv", end-(c1-c0), end, -1, 0)
		}
		shed := 0
		for i := 0; i < n; i++ {
			if in.Len(i) > ts.maxReq {
				continue
			}
			t0 := ts.tr.now()
			pt, _, err := opener.OpenDatagramInto(scratch, in.Payload(i))
			t1 := ts.tr.now()
			ts.lc[cOpenNs].Add(t1 - t0)
			ts.lc[cOpens].Add(1)
			if err != nil {
				ts.lc[cOpenRejects].Add(1)
				continue
			}
			var key uint64
			var shedPT []byte
			switch len(pt) {
			case wire.TimeRequestSize:
				req, err := wire.UnmarshalTimeRequest(pt)
				if err != nil {
					continue
				}
				key = reqKey(req.ClientID, req.Seq)
				resp, shedNow := ts.srv.Submit(t1, req, in.Addr(i))
				if shedNow {
					resp.MarshalInto(plain[:])
					shedPT = plain[:wire.TimeResponseSize]
				}
			case wire.CommitRequestSize:
				req, err := wire.UnmarshalCommitRequest(pt)
				if err != nil {
					continue
				}
				key = reqKey(req.ClientID, req.Seq)
				resp, decided := ts.srv.SubmitCommit(t1, req, in.Addr(i))
				if decided {
					resp.MarshalInto(plain[:])
					shedPT = plain[:wire.CommitResponseSize]
				}
			default:
				continue
			}
			t2 := ts.tr.now()
			ts.lc[cSubmitNs].Add(t2 - t1)
			ts.lc[cSubmits].Add(1)
			if sampled(key, spanEvery) {
				ts.tr.add("wire.open", t0, t1, parent, key)
				ts.tr.add("serve.submit", t1, t2, parent, key)
				ts.waitMu.Lock()
				ts.submitAt[key] = t1
				ts.waitMu.Unlock()
			}
			if shedPT != nil {
				sealed := shedSealer.SealDatagramAppend(out.Buffer(shed), shedPT)
				ts.lc[cSealNs].Add(ts.tr.now() - t2)
				ts.lc[cSeals].Add(1)
				out.Set(shed, len(sealed), in.Addr(i))
				shed++
			}
		}
		if shed > 0 {
			ts.send(out, shed, parent)
		}
	}
}

// send flushes out's first k slots, timing the batched send.
func (ts *tracedServer) send(out *transport.Batch, k int, parent int32) {
	t0 := ts.tr.now()
	sent, _ := ts.bc.SendBatch(out, k)
	t1 := ts.tr.now()
	ts.lc[cSendNs].Add(t1 - t0)
	ts.lc[cSendCalls].Add(1)
	ts.lc[cSendDgrams].Add(int64(sent))
	ts.lc[cSendErrors].Add(int64(k - sent))
	if parent >= 0 {
		ts.tr.add("transport.send", t0, t1, parent, 0)
	}
}

// drainLoop is serve.LiveServer's per-shard drain path with every call
// timed.
func (ts *tracedServer) drainLoop(i int, sealer *wire.Sealer) {
	defer ts.drainWG.Done()
	tick := time.NewTicker(traceTick)
	defer tick.Stop()
	deliveries := make([]serve.Delivery[transport.Sockaddr], 0, ts.srv.BatchMax())
	out := transport.NewBatch(ts.srv.BatchMax(), ts.maxResp)
	var plain [wire.CommitResponseSize]byte
	final := false
	for !final {
		select {
		case <-tick.C:
		case <-ts.done:
			final = true
		}
		for {
			t0 := ts.tr.now()
			deliveries = ts.srv.Drain(i, t0, deliveries[:0])
			t1 := ts.tr.now()
			ts.lc[cDrainNs].Add(t1 - t0)
			if len(deliveries) == 0 {
				break
			}
			batch := ts.lc[cDrainBatches].Add(1)
			ts.lc[cDrained].Add(int64(len(deliveries)))
			parent := int32(-1)
			if batch%spanEvery == 0 {
				parent = ts.tr.add("serve.drain", t0, t1, -1, 0)
			}
			ts.sealAndSend(deliveries, sealer, out, &plain, t0, parent)
		}
	}
}

// sealAndSend seals a drained batch and sends it, recording the queue
// wait of sampled requests.
func (ts *tracedServer) sealAndSend(deliveries []serve.Delivery[transport.Sockaddr], sealer *wire.Sealer, out *transport.Batch, plain *[wire.CommitResponseSize]byte, drainedAt int64, parent int32) {
	k := 0
	for d := range deliveries {
		var pt []byte
		var key uint64
		if deliveries[d].IsCommit {
			c := &deliveries[d].Commit
			c.MarshalInto(plain[:])
			pt, key = plain[:wire.CommitResponseSize], reqKey(c.ClientID, c.Seq)
		} else {
			r := &deliveries[d].Resp
			r.MarshalInto(plain[:])
			pt, key = plain[:wire.TimeResponseSize], reqKey(r.ClientID, r.Seq)
		}
		t0 := ts.tr.now()
		sealed := sealer.SealDatagramAppend(out.Buffer(k), pt)
		t1 := ts.tr.now()
		ts.lc[cSealNs].Add(t1 - t0)
		ts.lc[cSeals].Add(1)
		if sampled(key, spanEvery) {
			ts.waitMu.Lock()
			if at, ok := ts.submitAt[key]; ok {
				delete(ts.submitAt, key)
				ts.waitsUS = append(ts.waitsUS, float64(drainedAt-at)/1e3)
				ts.tr.add("serve.queue", at, drainedAt, -1, key)
			}
			ts.waitMu.Unlock()
			ts.tr.add("wire.seal", t0, t1, parent, key)
		}
		out.Set(k, len(sealed), deliveries[d].To)
		k++
		if k == out.Size() {
			ts.send(out, k, parent)
			k = 0
		}
	}
	if k > 0 {
		ts.send(out, k, parent)
	}
}

// timedStore times the vault's anchor persists.
type timedStore struct {
	inner commit.Store
	ts    *tracedServer
}

func (s *timedStore) Load() ([]byte, error) { return s.inner.Load() }

func (s *timedStore) Save(b []byte) error {
	t0 := s.ts.tr.now()
	err := s.inner.Save(b)
	t1 := s.ts.tr.now()
	s.ts.lc[cPersistNs].Add(t1 - t0)
	s.ts.lc[cPersists].Add(1)
	s.ts.tr.add("commit.persist", t0, t1, -1, 0)
	return err
}

// directCosts are the tsa and vault costs measured by timed direct
// calls on the workload's own hashes and tokens, after the window. The
// self costs exclude the clock, vouch and persist time inside each
// call, which the wrappers already attribute.
type directCosts struct {
	IssueNs                          float64
	LockNs, UnlockNs, StatusNs       float64
	LockSelf, UnlockSelf, StatusSelf float64
}

// directCalls is how many calls of each kind are timed.
const directCalls = 2000

func (ts *tracedServer) measureDirect(m *commitMix) (directCosts, error) {
	var dc directCosts
	var total time.Duration
	for i := 0; i < directCalls; i++ {
		h := sha256.Sum256(m.document(i%genFlows, i))
		t0 := time.Now()
		if _, err := ts.stamper.IssueAt(h, int64(i)); err != nil {
			return dc, err
		}
		total += time.Since(t0)
	}
	dc.IssueNs = float64(total.Nanoseconds()) / directCalls
	var err error
	dc.LockNs, dc.LockSelf, err = ts.timeVault(func(i int) error {
		if _, v := ts.vault.Lock(m.lockHash(i%genFlows, i), time.Now().Add(time.Hour).UnixNano(), 0); v != commit.OK {
			return fmt.Errorf("direct lock: %v", v)
		}
		return nil
	})
	if err != nil {
		return dc, err
	}
	decide := func(unlock bool) func(i int) error {
		return func(i int) error {
			p := &m.pool[splitmix(uint64(i))%uint64(len(m.pool))]
			tok, err := commit.UnmarshalToken(p.raw[:])
			if err != nil {
				return err
			}
			var v commit.Verdict
			if unlock {
				_, v = ts.vault.Unlock(tok)
			} else {
				_, v = ts.vault.Status(tok)
			}
			if (v == commit.OK) != p.ripe {
				return fmt.Errorf("direct decision on a token ripe=%v: %v", p.ripe, v)
			}
			return nil
		}
	}
	if dc.UnlockNs, dc.UnlockSelf, err = ts.timeVault(decide(true)); err != nil {
		return dc, err
	}
	dc.StatusNs, dc.StatusSelf, err = ts.timeVault(decide(false))
	return dc, err
}

// timeVault times directCalls calls of op, returning the mean time
// per call and the mean with the wrapped clock, vouch and persist time
// removed.
func (ts *tracedServer) timeVault(op func(i int) error) (float64, float64, error) {
	before := ts.lc.snapshot()
	t0 := time.Now()
	for i := 0; i < directCalls; i++ {
		if err := op(i); err != nil {
			return 0, 0, fmt.Errorf("%w: %v", errCheck, err)
		}
	}
	total := float64(time.Since(t0).Nanoseconds())
	d := ts.lc.snapshot().sub(before)
	children := float64(d[cClockNs] + d[cVouchNs] + d[cPersistNs])
	return total / directCalls, (total - children) / directCalls, nil
}

// tracedWindow is what the traced server reports for one measured
// window: its layer counters, serving counters and CPU time over the
// window, and the sampled queue-wait quantiles.
type tracedWindow struct {
	Layers   layerSnapshot `json:"layers"`
	Served   float64       `json:"served"`   // requests answered
	Received float64       `json:"received"` // requests submitted
	Shed     float64       `json:"shed"`
	Tokens   float64       `json:"tokens"`
	CPU      int64         `json:"cpu_ns"`
	WaitP50  float64       `json:"wait_p50_us"`
	WaitP99  float64       `json:"wait_p99_us"`
}

// windowMark is the traced server's state at a window's start.
type windowMark struct {
	layers layerSnapshot
	cnt    serve.Counters
	cpu    time.Duration
}

func (ts *tracedServer) mark() windowMark {
	ts.waitMu.Lock()
	ts.waitsUS = ts.waitsUS[:0]
	ts.waitMu.Unlock()
	return windowMark{ts.lc.snapshot(), ts.srv.Counters(), processCPU()}
}

func (ts *tracedServer) since(m windowMark) tracedWindow {
	c := ts.srv.Counters()
	w := tracedWindow{
		Layers:   ts.lc.snapshot().sub(m.layers),
		Served:   float64(c.Served + c.Unavailable + c.Shed() - m.cnt.Served - m.cnt.Unavailable - m.cnt.Shed()),
		Received: float64(c.Received - m.cnt.Received),
		Shed:     float64(c.Shed() - m.cnt.Shed()),
		Tokens:   float64(c.TokensIssued - m.cnt.TokensIssued),
		CPU:      (processCPU() - m.cpu).Nanoseconds(),
	}
	ts.waitMu.Lock()
	w.WaitP50, w.WaitP99 = quantile(ts.waitsUS, 0.50), quantile(ts.waitsUS, 0.99)
	ts.waitMu.Unlock()
	return w
}

// directRequest hands the traced server the workload's seed and set-up
// tokens for the direct-call measurement.
type directRequest struct {
	Seed   uint64   `json:"seed"`
	Tokens [][]byte `json:"tokens"`
	Ripe   []bool   `json:"ripe"`
}

// tracedChildMain is the traced server process: the node and the
// instrumented serving loop, driven by the same control protocol as
// the untraced server plus "window-start", "window-end" and
// "direct <json>". It writes its spans when its input closes.
func tracedChildMain(cfg childConfig, br *bufio.Reader, out io.Writer) error {
	ta, node, err := startTimeNode(cfg)
	if err != nil {
		return err
	}
	defer ta.Close()
	defer node.Close()
	tr := newTracer()
	ts, err := startTracedServer(node, cfg, liveSpec{commit: cfg.Anchor != ""}, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serve %s\n", ts.addr())
	var mark windowMark
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			break // parent closed our input: shut down
		}
		cmd, arg, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch cmd {
		case "cpu":
			fmt.Fprintf(out, "cpu %d\n", processCPU().Nanoseconds())
		case "window-start":
			mark = ts.mark()
			fmt.Fprintln(out, "ok")
		case "window-end":
			b, _ := json.Marshal(ts.since(mark))
			fmt.Fprintf(out, "window %s\n", b)
		case "direct":
			dc, err := ts.direct(arg)
			if err != nil {
				fmt.Fprintf(out, "error %v\n", err)
				continue
			}
			b, _ := json.Marshal(dc)
			fmt.Fprintf(out, "direct %s\n", b)
		}
	}
	ts.close()
	for _, child := range []string{"clock.trustednow", "clock.vouch", "commit.persist"} {
		tr.nestWithin(child, "serve.drain")
	}
	return tr.write(cfg.TraceOut)
}

func (ts *tracedServer) direct(arg string) (directCosts, error) {
	var req directRequest
	if err := json.Unmarshal([]byte(arg), &req); err != nil {
		return directCosts{}, err
	}
	m := &commitMix{seed: req.Seed}
	for i, raw := range req.Tokens {
		var p poolToken
		copy(p.raw[:], raw)
		p.ripe = req.Ripe[i]
		m.pool = append(m.pool, p)
	}
	return ts.measureDirect(m)
}

// runLiveTraced measures an untraced reference window against a server
// process, then the same fixed-rate window against a traced server
// process, and reports the per-layer metrics with a reconciliation of
// layer self times against server CPU.
func runLiveTraced(opt options, report io.Writer) (result, error) {
	if err := pinGenerator(); err != nil {
		return result{}, err
	}
	spec := opt.liveSpec()
	winDur := max(opt.window*2/5, time.Second)

	// Untraced reference: the end-to-end numbers tracing is compared to.
	ref, _, err := launchSetupsN(opt, spec, 1, false)
	if err != nil {
		return result{}, err
	}
	refWin, err := ref.measureWindow(spec, winDur)
	ref.stop()
	if err != nil {
		return result{}, err
	}

	s, _, err := launchSetupsN(opt, spec, 1, true)
	if err != nil {
		return result{}, err
	}
	defer s.stop()
	if _, err := s.offer(spec, spec.fixedRate, warmupDur); err != nil {
		return result{}, err
	}
	if _, err := s.call("window-start", "ok"); err != nil {
		return result{}, err
	}
	st, err := s.offer(spec, spec.fixedRate, winDur)
	if err != nil {
		return result{}, err
	}
	var tw tracedWindow
	if err := s.callJSON("window-end", "window", &tw); err != nil {
		return result{}, err
	}
	logStep("traced window", st)
	var dc directCosts
	if spec.commit {
		if err := s.checkLocksRipen(st); err != nil {
			return result{}, err
		}
		m := s.mix.(*commitMix)
		req := directRequest{Seed: m.seed}
		for _, p := range m.pool {
			req.Tokens = append(req.Tokens, p.raw[:])
			req.Ripe = append(req.Ripe, p.ripe)
		}
		b, _ := json.Marshal(req)
		if err := s.callJSON("direct "+string(b), "direct", &dc); err != nil {
			return result{}, err
		}
	}
	if _, err := s.stop(); err != nil {
		return result{}, err
	}

	lc := tw.Layers
	served := max(tw.Served, 1)
	vc := vaultCounts(st, s.mix)
	res := newResult(int64(st.attempted), int64(st.failed()))
	res.add("transport.recv_ns_per_dgram", ratio(lc[cRecvNs], lc[cRecvDgrams]), "ns")
	res.add("transport.recv_dgrams_per_call", ratio(lc[cRecvDgrams], lc[cRecvCalls]), "count")
	res.add("transport.send_ns_per_dgram", ratio(lc[cSendNs], lc[cSendDgrams]), "ns")
	res.add("transport.send_dgrams_per_call", ratio(lc[cSendDgrams], lc[cSendCalls]), "count")
	res.add("transport.send_errors", float64(lc[cSendErrors]), "count")
	res.add("wire.open_ns", ratio(lc[cOpenNs], lc[cOpens]), "ns")
	res.add("wire.seal_ns", ratio(lc[cSealNs], lc[cSeals]), "ns")
	res.add("wire.open_reject_frac", ratio(lc[cOpenRejects], lc[cOpens]), "ratio")
	// The drain's own work: its time minus the clock, vouch and persist
	// calls it made, and minus the tsa and vault work measured directly.
	tsaEst := tw.Tokens * dc.IssueNs
	vaultEst := vc[opLock]*dc.LockSelf + vc[opUnlock]*dc.UnlockSelf + vc[opStatus]*dc.StatusSelf
	drainSelf := max(float64(lc[cDrainNs]-lc[cClockNs]-lc[cVouchNs]-lc[cPersistNs])-tsaEst-vaultEst, 0)
	res.add("serve.submit_ns", ratio(lc[cSubmitNs], lc[cSubmits]), "ns")
	res.add("serve.drain_self_ns_per_req", drainSelf/served, "ns")
	res.add("serve.reqs_per_batch", ratio(lc[cDrained], lc[cDrainBatches]), "count")
	res.add("serve.queue_wait_p50_us", tw.WaitP50, "us")
	res.add("serve.queue_wait_p99_us", tw.WaitP99, "us")
	res.add("serve.shed_frac", tw.Shed/max(tw.Received, 1), "ratio")
	res.add("clock.trustednow_ns", ratio(lc[cClockNs], lc[cClockCalls]), "ns")
	res.add("clock.vouch_ns", ratio(lc[cVouchNs], lc[cVouchCalls]), "ns")
	res.add("clock.calls_per_req", float64(lc[cClockCalls])/served, "count")
	res.add("tsa.issue_ns", dc.IssueNs, "ns")
	res.add("tsa.tokens_per_req", tw.Tokens/served, "count")
	res.add("commit.lock_ns", dc.LockNs, "ns")
	res.add("commit.unlock_ns", dc.UnlockNs, "ns")
	res.add("commit.status_ns", dc.StatusNs, "ns")
	res.add("commit.persist_count", float64(lc[cPersists]), "count")
	res.add("commit.persist_ns", ratio(lc[cPersistNs], lc[cPersists]), "ns")
	addLoadgenMetrics(&res, refWin)
	res.add("failed_frac", refWin.failedFrac(), "ratio")
	addZero(&res, simLayerMetrics)

	// Reconciliation: layer self time per request against the server
	// CPU of the untraced run.
	layers := []struct {
		name string
		ns   float64
	}{
		{"transport", float64(lc[cRecvNs]+lc[cSendNs]) / served},
		{"wire", float64(lc[cOpenNs]+lc[cSealNs]) / served},
		{"serve", (float64(lc[cSubmitNs]) + drainSelf) / served},
		{"clock", float64(lc[cClockNs]+lc[cVouchNs]) / served},
		{"tsa", tsaEst / served},
		{"commit", (vaultEst + float64(lc[cPersistNs])) / served},
	}
	var sum float64
	fmt.Fprintf(report, "reconciliation, %s at %.0f req/s (ns per request):\n", opt.workload, spec.fixedRate)
	for _, l := range layers {
		fmt.Fprintf(report, "  %-21s %10.1f\n", l.name+" self", l.ns)
		sum += l.ns
	}
	refCPU := refWin.serverCPUPerReq()
	tracedCPU := float64(tw.CPU) / served
	fmt.Fprintf(report, "  %-21s %10.1f\n", "layers total", sum)
	fmt.Fprintf(report, "  %-21s %10.1f (traced server process)\n", "server cpu", tracedCPU)
	fmt.Fprintf(report, "  %-21s %10.1f (wakeups, ticks, scheduler, GC)\n", "unattributed", tracedCPU-sum)
	fmt.Fprintf(report, "  %-21s %10.1f (untraced server process)\n", "server_cpu_ns_per_req", refCPU)
	fmt.Fprintf(report, "tracing overhead (traced minus untraced):\n")
	fmt.Fprintf(report, "  server_cpu_ns_per_req %+10.1f\n", tracedCPU-refCPU)
	fmt.Fprintf(report, "  p50_us                %+10.1f (traced %.1f)\n", st.latQuantile(0.5)-refWin.latQuantile(0.5), st.latQuantile(0.5))
	fmt.Fprintf(report, "  p99_us                %+10.1f (traced %.1f)\n", st.latQuantile(0.99)-refWin.latQuantile(0.99), st.latQuantile(0.99))
	fmt.Fprintf(report, "spans: %s\n", opt.traceOut)
	return res, nil
}

// vaultCounts counts the traced window's answered vault operations by
// kind (zero for the stamp workload).
func vaultCounts(st *step, m mix) [numOps]float64 {
	var n [numOps]float64
	cm, ok := m.(*commitMix)
	if !ok {
		return n
	}
	for _, f := range st.flows {
		for k := 0; k < f.sent; k++ {
			if f.outcome[k] == outOK {
				n[cm.op(f.w, k)]++
			}
		}
	}
	return n
}

// addLoadgenMetrics reports how well the generator kept its schedule
// and what it cost, from an untraced window, with that window's
// latency p99 taken over all of it rather than as p99_us's median over
// parts.
func addLoadgenMetrics(res *result, st *step) {
	res.add("loadgen.late_p99_us", quantile(st.lateUS, 0.99), "us")
	res.add("loadgen.window_p99_us", quantile(st.latUS, 0.99), "us")
	res.add("loadgen.achieved_frac", st.achievedFrac(), "ratio")
	res.add("loadgen.cpu_ns_per_req", float64(st.cpu.Nanoseconds())/float64(max(st.attempted, 1)), "ns")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
