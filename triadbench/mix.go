//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"triadtime/internal/commit"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// How far an OK stamp may lie outside the generator's own clock window
// [send, receive]. The node calibrates against an authority on the
// same host, so its trusted time tracks the generator's wall clock up
// to a fixed error plus a rate error that accumulates from the first
// OK answer on. With the 200ms calibration sleep the rate error on a
// shared 2-vCPU host was 0.2-0.4% in most runs and 1.3% in one; the
// bound allows 2%, so a calibration that drifts further fails the run.
const (
	stampSlack   = 20_000_000 // ns
	stampRateErr = 0.02
)

// stampBound is the allowed error at generator wall time wall.
func (st *step) stampBound(wall int64) int64 {
	return stampSlack + int64(stampRateErr*float64(wall-st.readyWall))
}

// clientsPerFlow virtual client IDs per flow spread requests across
// the server's shards.
const clientsPerFlow = 32

// splitmix is the generator's input PRNG: every request field derives
// from the workload seed through it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stampMix sends tokenless TimeRequests round-robin over each flow's
// virtual clients.
type stampMix struct {
	clients [genFlows][clientsPerFlow]uint64
}

func newStampMix(seed uint64) *stampMix {
	m := &stampMix{}
	for w := range m.clients {
		for c := range m.clients[w] {
			m.clients[w][c] = splitmix(seed<<16 ^ uint64(w)<<8 ^ uint64(c))
		}
	}
	return m
}

func (m *stampMix) client(w, k int) uint64 { return m.clients[w][k%clientsPerFlow] }

func (m *stampMix) fill(w, k int, _ int64, buf []byte) []byte {
	wire.TimeRequest{ClientID: m.client(w, k), Seq: uint64(k)}.MarshalInto(buf)
	return buf[:wire.TimeRequestSize]
}

func (m *stampMix) record(f *flow, pt []byte, now int64) error {
	r, err := wire.UnmarshalTimeResponse(pt)
	if err != nil {
		return err
	}
	k, err := f.markAnswer(r.Seq, uint8(r.Status), r.Nanos, now)
	if err != nil {
		return err
	}
	if r.ClientID != m.client(f.w, k) {
		return fmt.Errorf("seq %d answered for client %x", k, r.ClientID)
	}
	return nil
}

func (m *stampMix) check(st *step) error {
	for _, f := range st.flows {
		var last [clientsPerFlow]int64
		for k := 0; k < f.sent; k++ {
			if f.recvAt[k] == 0 {
				continue // lost
			}
			switch wire.StampStatus(f.status[k]) {
			case wire.StatusOK:
				if err := checkStamp(st, f, k); err != nil {
					return err
				}
				c := k % clientsPerFlow
				if f.nanos[k] < last[c] {
					return fmt.Errorf("client %x: stamp %d at seq %d is below the earlier %d", m.client(f.w, k), f.nanos[k], k, last[c])
				}
				last[c] = f.nanos[k]
				f.outcome[k] = outOK
			case wire.StatusOverloaded:
				f.outcome[k] = outShed
			case wire.StatusUnavailable:
				f.outcome[k] = outUnavailable
			default:
				return fmt.Errorf("flow %d seq %d: stamp status %d", f.w, k, f.status[k])
			}
		}
	}
	return nil
}

// checkStamp verifies that request k's trusted time lies within
// stampBound of the generator's clock between its send and its answer.
func checkStamp(st *step, f *flow, k int) error {
	sent, recv := st.t0Wall+f.sentAt[k], st.t0Wall+f.recvAt[k]
	lo, hi := sent-st.stampBound(sent), recv+st.stampBound(recv)
	if f.nanos[k] < lo || f.nanos[k] > hi {
		return fmt.Errorf("flow %d seq %d: trusted time %d outside [%d, %d]", f.w, k, f.nanos[k], lo, hi)
	}
	return nil
}

// Commit workload operations, drawn per request from the seed with
// equal weights. Four of them are one triad-seal session as the
// repository README runs it: `lock -for` (a tokenless trusted-time
// round trip, then the lock), `status`, then `unlock`. The fifth is a
// stamp request with FlagWantToken from a timestamping client, one per
// session; that ratio is a choice, not a measurement.
const (
	opLock = iota // opLock..opStatus follow wire.KindCommitLock..KindCommitStatus
	opUnlock
	opStatus
	opStamp // with FlagWantToken
	opTime  // tokenless, as lock -for reads the node's trusted time
	numOps
)

// hasTokenBit marks a stamp response that carried a token in the
// recorded status byte.
const hasTokenBit = 0x80

// poolToken is one commitment token minted during set-up; unlocks and
// status queries present them.
type poolToken struct {
	raw    [commit.TokenSize]byte
	unlock int64
	ripe   bool
}

// commitMix interleaves commitment locks, unlocks and status queries
// with tokenless and token-bearing stamp requests. Unlocks and status
// queries present set-up tokens, half of them ripe and half still
// sealed, so the vault's OK and Sealed verdicts both run.
type commitMix struct {
	*stampMix
	seed    uint64
	pool    []poolToken
	stamper *tsa.Stamper // verifies stamp tokens with the server's TSA key
}

// commitTokSize is a kept token's slot: large enough for both token
// kinds.
const commitTokSize = commit.TokenSize

func (m *commitMix) draw(w, k int) uint64 {
	return splitmix(m.seed ^ uint64(w)<<40 ^ uint64(k))
}

func (m *commitMix) op(w, k int) int { return int(m.draw(w, k) % numOps) }

// keepsToken reports whether request k's response token is checked:
// stamp tokens are verified, lock tokens matched to their request.
func (m *commitMix) keepsToken(w, k int) bool {
	op := m.op(w, k)
	return op == opStamp || op == opLock
}

// lockDelay is how far past its due time request k's lock seals:
// 0.5-1s, so tokens minted in a window ripen shortly after it.
func (m *commitMix) lockDelay(w, k int) int64 {
	return 500_000_000 + int64(m.draw(w, k)>>8%500_000_000)
}

// lockHash is the commitment hash request k locks.
func (m *commitMix) lockHash(w, k int) [commit.HashSize]byte {
	var h [commit.HashSize]byte
	binary.BigEndian.PutUint64(h[:], m.draw(w, k))
	binary.BigEndian.PutUint64(h[8:], uint64(k))
	return h
}

// document is request k's stamped document; its SHA-256 goes on the
// wire and the returned token must verify against it.
func (m *commitMix) document(w, k int) []byte {
	var d [24]byte
	binary.BigEndian.PutUint64(d[0:], m.seed)
	binary.BigEndian.PutUint64(d[8:], uint64(w))
	binary.BigEndian.PutUint64(d[16:], uint64(k))
	return d[:]
}

func (m *commitMix) fill(w, k int, dueWall int64, buf []byte) []byte {
	h := m.draw(w, k)
	req := wire.CommitRequest{ClientID: m.client(w, k), Seq: uint64(k)}
	switch int(h % numOps) {
	case opTime:
		wire.TimeRequest{ClientID: req.ClientID, Seq: req.Seq}.MarshalInto(buf)
		return buf[:wire.TimeRequestSize]
	case opStamp:
		wire.TimeRequest{
			ClientID: req.ClientID,
			Seq:      req.Seq,
			Flags:    wire.FlagWantToken,
			Hash:     sha256.Sum256(m.document(w, k)),
		}.MarshalInto(buf)
		return buf[:wire.TimeRequestSize]
	case opLock:
		req.Kind = wire.KindCommitLock
		req.Hash = m.lockHash(w, k)
		req.UnlockNanos = dueWall + m.lockDelay(w, k)
	case opUnlock:
		req.Kind = wire.KindCommitUnlock
		req.Token = m.pool[h>>8%uint64(len(m.pool))].raw
	case opStatus:
		req.Kind = wire.KindCommitStatus
		req.Token = m.pool[h>>8%uint64(len(m.pool))].raw
	}
	req.MarshalInto(buf)
	return buf[:wire.CommitRequestSize]
}

func (m *commitMix) record(f *flow, pt []byte, now int64) error {
	if len(pt) == wire.TimeResponseSize {
		r, err := wire.UnmarshalTimeResponse(pt)
		if err != nil {
			return err
		}
		status := uint8(r.Status)
		if r.HasToken {
			status |= hasTokenBit
		}
		k, err := f.markAnswer(r.Seq, status, r.Nanos, now)
		if err != nil {
			return err
		}
		if op := m.op(f.w, k); (op != opStamp && op != opTime) || r.ClientID != m.client(f.w, k) {
			return fmt.Errorf("flow %d seq %d: unexpected stamp response", f.w, k)
		}
		copy(f.token(k), r.Token[:])
		return nil
	}
	r, err := wire.UnmarshalCommitResponse(pt)
	if err != nil {
		return err
	}
	k, err := f.markAnswer(r.Seq, uint8(r.Verdict), r.Nanos, now)
	if err != nil {
		return err
	}
	if op := m.op(f.w, k); op >= opStamp || r.Kind != wire.KindCommitLock+wire.Kind(op) || r.ClientID != m.client(f.w, k) {
		return fmt.Errorf("flow %d seq %d: unexpected %v response", f.w, k, r.Kind)
	}
	copy(f.token(k), r.Token[:]) // kept for locks only
	return nil
}

func (m *commitMix) check(st *step) error {
	for _, f := range st.flows {
		var last [clientsPerFlow]int64
		for k := 0; k < f.sent; k++ {
			if f.recvAt[k] == 0 {
				continue // lost
			}
			out, err := m.classify(st, f, k)
			if err != nil {
				return fmt.Errorf("flow %d seq %d: %w", f.w, k, err)
			}
			f.outcome[k] = out
			// Stamps of one client come from successive batch reads
			// of its shard, so they never run backwards. (Vault
			// decisions read the clock later in the same drain, so
			// they are not ordered against the batch's stamps.)
			if op := m.op(f.w, k); out == outOK && (op == opStamp || op == opTime) {
				c := k % clientsPerFlow
				if f.nanos[k] < last[c] {
					return fmt.Errorf("client %x: stamp %d at seq %d is below the earlier %d", m.client(f.w, k), f.nanos[k], k, last[c])
				}
				last[c] = f.nanos[k]
			}
		}
	}
	return nil
}

// classify checks one answered commit-workload request against what
// its inputs entitle it to, and returns its outcome class.
func (m *commitMix) classify(st *step, f *flow, k int) (uint8, error) {
	h := m.draw(f.w, k)
	op := int(h % numOps)
	status := f.status[k]
	tok := f.token(k)
	if op == opStamp || op == opTime {
		switch wire.StampStatus(status &^ hasTokenBit) {
		case wire.StatusOK:
		case wire.StatusOverloaded:
			return outShed, nil
		case wire.StatusUnavailable:
			return outUnavailable, nil
		default:
			return 0, fmt.Errorf("stamp status %d", status)
		}
		if op == opTime {
			if status&hasTokenBit != 0 {
				return 0, fmt.Errorf("token in the answer to a tokenless stamp")
			}
			return outOK, checkStamp(st, f, k)
		}
		if status&hasTokenBit == 0 {
			return 0, fmt.Errorf("requested token missing")
		}
		t, ok := m.stamper.VerifyBytes(m.document(f.w, k), tok[:tsa.TokenSize])
		if !ok || t.Nanos != f.nanos[k] {
			return 0, fmt.Errorf("stamp token does not verify")
		}
		return outOK, checkStamp(st, f, k)
	}
	v := wire.CommitVerdict(status)
	switch v {
	case wire.CommitOverloaded:
		return outShed, nil
	case wire.CommitUnavailable:
		return outUnavailable, nil
	default:
		// A decided verdict: checked against the request below.
	}
	if op == opLock {
		if v != wire.CommitOK {
			return 0, fmt.Errorf("lock verdict %v, want ok", v)
		}
		t, err := commit.UnmarshalToken(tok)
		wantUnlock := st.t0Wall + st.dueNanos(f.w, k) + m.lockDelay(f.w, k)
		if err != nil || t.Hash != m.lockHash(f.w, k) || t.UnlockNanos != wantUnlock || t.IssuedNanos != f.nanos[k] {
			return 0, fmt.Errorf("lock token does not match its request")
		}
		return outOK, checkStamp(st, f, k)
	}
	p := &m.pool[h>>8%uint64(len(m.pool))]
	want := wire.CommitSealed
	if p.ripe {
		want = wire.CommitOK
	}
	if v != want {
		return 0, fmt.Errorf("%s of a token ripe=%v: verdict %v, want %v", opNames[op], p.ripe, v, want)
	}
	// The verdict must agree with the trusted time it was decided at.
	if (f.nanos[k] >= p.unlock) != (v == wire.CommitOK) {
		return 0, fmt.Errorf("verdict %v decided at %d against unlock time %d", v, f.nanos[k], p.unlock)
	}
	return outOK, checkStamp(st, f, k)
}

var opNames = [numOps]string{"lock", "unlock", "status", "stamp", "time"}
