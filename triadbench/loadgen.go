//go:build linux

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// The generator is open-loop: request k of flow w is due at a fixed
// offset from the step's start whatever the server does, and its
// latency is timed from that due time, so a stall counts against every
// request queued behind it. Load comes from genFlows flows, each with
// its own socket, sending goroutine, receiving goroutine and sealer
// identity. Sends are paced every genPace, spreading each
// millisecond's requests over it instead of bursting them against the
// server's 1ms drain tick.
//
// The server's CPU is mostly spent waking for the generator's sends,
// not on the requests they carry: with 2 flows paced every 100µs it
// used about half a core at any rate from 15k to 50k req/s, so its
// CPU per request tracked how the shared host scheduled those wakeups
// and spread 0.15 of its median over runs of one build. One flow paced
// every 200µs sends a quarter as often, still 5 times per drain tick;
// the server's CPU per request at 50k req/s then fell from about 11µs
// to 5µs and spread 0.10.
const (
	genFlows     = 1
	genPace      = 200 * time.Microsecond
	genSendSlots = 64 // one UDP GSO run at most
	genRecvSlots = 256
	genLinger    = 300 * time.Millisecond
)

// mix builds a workload's requests and records its responses.
type mix interface {
	// fill marshals request k of flow w, due at wall time dueWall,
	// into buf and returns the plaintext.
	fill(w, k int, dueWall int64, buf []byte) []byte
	// record stores one authenticated response plaintext at
	// generator time now; it reports an unexpected response.
	record(f *flow, pt []byte, now int64) error
	// check verifies the answered requests of a finished step and
	// classifies each one.
	check(st *step) error
}

// tokenKeeper is a mix whose responses carry tokens the checks need
// for some requests.
type tokenKeeper interface {
	keepsToken(w, k int) bool
}

// token is request k's token slot; nil if the mix keeps none for it.
func (f *flow) token(k int) []byte {
	if f.tokSlot == nil || f.tokSlot[k] < 0 {
		return nil
	}
	i := int(f.tokSlot[k]) * commitTokSize
	return f.tokens[i : i+commitTokSize]
}

// Per-request outcome classes.
const (
	outLost uint8 = iota
	outOK
	outShed
	outUnavailable
)

// flow is one socket's worth of load: its sealer identity, the
// requests it sent and the responses it received.
type flow struct {
	w      int
	maxReq int
	conn   *net.UDPConn
	bc     *transport.BatchConn
	sealer *wire.Sealer
	opener *wire.Opener

	n       int     // requests scheduled
	sent    int     // requests sent (the rest were never due in time)
	sentAt  []int64 // generator ns when request k was handed to the kernel
	recvAt  []int64 // generator ns when its response arrived; 0 = none
	status  []uint8 // raw status/verdict byte of the response
	nanos   []int64 // trusted nanoseconds the response carries
	tokSlot []int32 // request k's slot in tokens, or -1
	tokens  []byte  // response tokens of the requests the mix keeps them for
	outcome []uint8

	answered atomic.Int64
	badResp  error
	recvDone chan struct{}
}

// newFlow dials target and creates flow w's sealer under identity
// base+w of a range of n.
func newFlow(target *net.UDPAddr, key []byte, base uint32, w, n int, maxReq int) (*flow, error) {
	conn, err := net.DialUDP("udp", nil, target)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	bc, err := transport.NewBatchConn(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = bc.EnableGSO(maxReq) // best effort: without it, one header per datagram
	sealer, err := wire.NewSealerShard(key, base, w, n)
	if err != nil {
		conn.Close()
		return nil, err
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &flow{w: w, maxReq: maxReq, conn: conn, bc: bc, sealer: sealer, opener: opener}, nil
}

// exchange seals and sends the request plaintexts on f, then collects
// the authenticated response plaintexts, keyed by seq, until every
// request is answered or the timeout passes. Set-up and the
// post-window checks use it; the measured windows use runStep.
func (f *flow) exchange(pts [][]byte, timeout time.Duration) (map[uint64][]byte, error) {
	out := transport.NewBatch(genSendSlots, f.maxReq)
	for i := 0; i < len(pts); i += genSendSlots {
		b := 0
		for ; b < genSendSlots && i+b < len(pts); b++ {
			sealed := f.sealer.SealDatagramAppend(out.Buffer(b), pts[i+b])
			out.Set(b, len(sealed), transport.Sockaddr{})
		}
		if _, err := f.bc.SendBatch(out, b); err != nil {
			return nil, err
		}
	}
	got := make(map[uint64][]byte, len(pts))
	in := transport.NewBatch(genRecvSlots, wire.CommitResponseSize+wire.SealedOverhead+1)
	scratch := make([]byte, 0, wire.CommitResponseSize)
	if err := f.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	for len(got) < len(pts) {
		n, err := f.bc.RecvBatch(in)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			pt, _, err := f.opener.OpenDatagramInto(scratch, in.Payload(i))
			if err != nil || len(pt) < 17 {
				continue
			}
			got[binary.BigEndian.Uint64(pt[9:17])] = append([]byte(nil), pt...)
		}
	}
	return got, nil
}

// identities hands out disjoint sealer identity ranges within one
// server incarnation: every flow of every step gets its own, so no
// replay window or nonce space is shared.
type identities struct{ next uint32 }

func (id *identities) take(n int) uint32 {
	base := genIdentBase + id.next
	id.next += uint32(n)
	return base
}

// step is one open-loop window at a fixed offered rate.
type step struct {
	rate      float64
	dur       time.Duration
	flows     []*flow
	t0        time.Time
	t0Wall    int64
	readyWall int64 // when the server answered its first OK
	m         mix
	cpu       time.Duration // generator process CPU over the window

	// serverCPUAt[i] is the server's CPU time i seconds into the
	// window.
	serverCPUAt []time.Duration
	cpuErr      error

	// set by analyze
	attempted, due, ok, shed, unavail, lost int
	latUS                                   []float64           // OK latencies from due time
	latPart                                 [latParts][]float64 // latUS split by the part of the window the request was due in
	lateUS                                  []float64           // send time minus due time, of 1 request in lateSampleEvery
}

// dueNanos is request k of flow w's due time, in ns after t0. The
// flows interleave on one evenly spaced schedule: request k of flow w
// is the (k·flows+w)-th due overall.
func (st *step) dueNanos(w, k int) int64 {
	return int64(float64(k*len(st.flows)+w) * 1e9 / st.rate)
}

// dueBy is how many of flow w's requests are due in the first t
// nanoseconds.
func (st *step) dueBy(w int, t int64) int {
	g := int(math.Floor(float64(t)*st.rate/1e9)) + 1 // requests 0..g-1 overall are due
	if g <= w {
		return 0
	}
	return (g - w + len(st.flows) - 1) / len(st.flows)
}

// runStep opens genFlows flows against s under fresh identities and
// drives them at rate for dur.
func runStep(s *liveServer, spec liveSpec, rate float64, dur time.Duration) (*step, error) {
	maxReq, maxResp := spec.maxReq(), spec.maxResp()
	st := &step{rate: rate, dur: dur, m: s.mix, readyWall: s.ready.UnixNano()}
	base := s.ids.take(genFlows)
	for w := 0; w < genFlows; w++ {
		f, err := newFlow(s.addr, s.cfg.ClientKey, base, w, genFlows, maxReq)
		if err != nil {
			for _, g := range st.flows {
				g.conn.Close()
			}
			return nil, err
		}
		st.flows = append(st.flows, f)
	}
	for w, f := range st.flows {
		n := st.dueBy(w, int64(dur))
		f.n = n
		f.sentAt = make([]int64, n)
		f.recvAt = make([]int64, n)
		f.status = make([]uint8, n)
		f.nanos = make([]int64, n)
		f.outcome = make([]uint8, n)
		if tk, ok := st.m.(tokenKeeper); ok {
			f.tokSlot = make([]int32, n)
			slots := int32(0)
			for k := range f.tokSlot {
				f.tokSlot[k] = -1
				if tk.keepsToken(w, k) {
					f.tokSlot[k] = slots
					slots++
				}
			}
			f.tokens = make([]byte, int(slots)*commitTokSize)
		}
		f.recvDone = make(chan struct{})
	}
	// A sender sleeping in nanosleep keeps its P until the runtime
	// retakes it, which can take milliseconds; a P per sender beyond
	// one per CPU keeps the receivers running meanwhile.
	runtime.GOMAXPROCS(genCPUs + genFlows)
	// The window's arrays are allocated before it starts; a
	// collection during it would compete with the sender and the
	// receivers for their CPU.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st.t0 = time.Now()
	st.t0Wall = st.t0.UnixNano()
	cpu0 := processCPU()
	for _, f := range st.flows {
		go st.recvLoop(f, maxResp)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.sampleServerCPU(s.serverProc)
	}()
	for _, f := range st.flows {
		wg.Add(1)
		go func(f *flow) {
			defer wg.Done()
			// The Go runtime's timers wake at millisecond resolution
			// when idle, which would turn pacing into 1ms bursts; a
			// sender owns its thread and sleeps in nanosleep with
			// minimal timer slack instead. The thread exits with the
			// goroutine, taking its timer slack with it.
			runtime.LockOSThread()
			setTimerSlack(time.Microsecond)
			st.sendLoop(f, maxReq)
		}(f)
	}
	wg.Wait()
	// Linger for the responses still in flight, then stop receiving.
	lingerEnd := time.Now().Add(genLinger)
	for time.Now().Before(lingerEnd) && !st.allAnswered() {
		time.Sleep(time.Millisecond)
	}
	st.cpu = processCPU() - cpu0
	for _, f := range st.flows {
		_ = transport.InterruptReads(f.conn)
		<-f.recvDone
		f.conn.Close()
	}
	for _, f := range st.flows {
		if f.badResp != nil {
			return nil, fmt.Errorf("%w: %v", errCheck, f.badResp)
		}
	}
	if st.cpuErr != nil {
		return nil, st.cpuErr
	}
	if err := st.analyze(); err != nil {
		return nil, err
	}
	return st, nil
}

// setTimerSlack sets the calling thread's timer slack (Linux
// PR_SET_TIMERSLACK), so short sleeps end on time.
func setTimerSlack(d time.Duration) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, uintptr(d.Nanoseconds()), 0)
}

// nanosleep blocks the calling thread for d.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}

// sampleServerCPU reads the server's CPU time at the start of the
// window and after each whole second of it.
func (st *step) sampleServerCPU(p *serverProc) {
	for i := 0; time.Duration(i)*time.Second <= st.dur; i++ {
		time.Sleep(time.Until(st.t0.Add(time.Duration(i) * time.Second)))
		c, err := p.cpu()
		if err != nil {
			st.cpuErr = err
			return
		}
		st.serverCPUAt = append(st.serverCPUAt, c)
	}
}

// serverCPUPerReq is the median over the window's whole seconds of
// the server's CPU time in that second per OK answer received in it.
// Requests shed, answered Unavailable or lost are not in the count, so
// a server that saves work by not answering reads as more costly.
func (st *step) serverCPUPerReq() float64 {
	ok := make([]int, len(st.serverCPUAt))
	for _, f := range st.flows {
		for k := 0; k < f.sent; k++ {
			if sec := int(f.recvAt[k] / int64(time.Second)); f.outcome[k] == outOK && sec < len(ok) {
				ok[sec]++
			}
		}
	}
	var per []float64
	for i := 1; i < len(st.serverCPUAt); i++ {
		if ok[i-1] > 0 {
			per = append(per, float64(st.serverCPUAt[i]-st.serverCPUAt[i-1])/float64(ok[i-1]))
		}
	}
	return median(per)
}

func (st *step) allAnswered() bool {
	for _, f := range st.flows {
		if f.answered.Load() < int64(f.sent) {
			return false
		}
	}
	return true
}

// sendLoop sends flow f's requests as they fall due, batching those
// due together, until the window ends.
func (st *step) sendLoop(f *flow, maxReq int) {
	out := transport.NewBatch(genSendSlots, maxReq)
	var plain [wire.CommitRequestSize]byte
	end := int64(st.dur)
	k := 0
	for k < f.n {
		now := int64(time.Since(st.t0))
		if now >= end {
			break
		}
		due := min(st.dueBy(f.w, now), f.n)
		for k < due {
			b := 0
			for ; b < genSendSlots && k+b < due; b++ {
				pt := st.m.fill(f.w, k+b, st.t0Wall+st.dueNanos(f.w, k+b), plain[:])
				sealed := f.sealer.SealDatagramAppend(out.Buffer(b), pt)
				out.Set(b, len(sealed), transport.Sockaddr{})
			}
			at := int64(time.Since(st.t0))
			for i := 0; i < b; i++ {
				f.sentAt[k+i] = at
			}
			// A send shortfall leaves those requests unanswered: lost.
			_, _ = f.bc.SendBatch(out, b)
			k += b
		}
		nanosleep(genPace)
	}
	f.sent = k
}

// recvLoop authenticates and records responses until reads are
// interrupted.
func (st *step) recvLoop(f *flow, maxResp int) {
	defer close(f.recvDone)
	in := transport.NewBatch(genRecvSlots, maxResp+1)
	scratch := make([]byte, 0, wire.CommitResponseSize)
	for {
		n, err := f.bc.RecvBatch(in)
		if err != nil {
			return
		}
		now := int64(time.Since(st.t0))
		for i := 0; i < n; i++ {
			pt, _, err := f.opener.OpenDatagramInto(scratch, in.Payload(i))
			if err != nil {
				continue
			}
			if err := st.m.record(f, pt, now); err != nil && f.badResp == nil {
				f.badResp = err
			}
		}
	}
}

// markAnswer stores the common part of a response for request k.
func (f *flow) markAnswer(k uint64, status uint8, nanos, now int64) (int, error) {
	if k >= uint64(f.n) {
		return 0, fmt.Errorf("flow %d: response for unsent seq %d", f.w, k)
	}
	if f.recvAt[k] != 0 {
		return 0, fmt.Errorf("flow %d: second response for seq %d", f.w, k)
	}
	f.recvAt[k] = now
	f.status[k] = status
	f.nanos[k] = nanos
	f.answered.Add(1)
	return int(k), nil
}

// analyze classifies every sent request through the mix's checks and
// gathers the step's latency and lateness samples.
func (st *step) analyze() error {
	if err := st.m.check(st); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	for _, f := range st.flows {
		st.attempted += f.sent
		for k := 0; k < f.sent; k++ {
			due := st.dueNanos(f.w, k)
			if k%lateSampleEvery == 0 {
				st.lateUS = append(st.lateUS, float64(f.sentAt[k]-due)/1e3)
			}
			switch f.outcome[k] {
			case outOK:
				st.ok++
				lat := float64(f.recvAt[k]-due) / 1e3
				st.latUS = append(st.latUS, lat)
				p := min(int(due*latParts/int64(st.dur)), latParts-1)
				st.latPart[p] = append(st.latPart[p], lat)
				continue
			case outShed:
				st.shed++
			case outUnavailable:
				st.unavail++
			default:
				st.lost++
			}
		}
		// Requests due inside the window that were never sent count
		// as scheduled but not attempted: the generator fell behind.
		st.due += st.dueBy(f.w, int64(st.dur))
	}
	return nil
}

// latParts is how many consecutive equal parts of the window the
// latency quantiles are taken over: p50_us and p99_us are the median
// over the parts of each part's quantile. A burst of noise from the
// shared host then moves the parts it falls in and not the run, while
// a stall that recurs at least once a part (every 3 s of a 30 s
// window) shows in every part, so in full.
const latParts = 10

// latQuantile is the median over the window's parts of each part's
// q-quantile latency.
func (st *step) latQuantile(q float64) float64 {
	var per []float64
	for _, xs := range st.latPart {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// lateSampleEvery thins the generator-lateness samples: lateness moves
// slowly from one request to the next.
const lateSampleEvery = 8

func (st *step) failed() int { return st.shed + st.unavail + st.lost }

func (st *step) failedFrac() float64 {
	if st.attempted == 0 {
		return 1
	}
	return float64(st.failed()) / float64(st.attempted)
}

// achievedFrac is the share of the requests due in the window that
// the generator actually sent.
func (st *step) achievedFrac() float64 {
	if st.due == 0 {
		return 0
	}
	return float64(st.attempted) / float64(st.due)
}
