//go:build linux

package main

import (
	"encoding/json"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call at a layer boundary. Parent indexes the span
// that caused it (-1 for none); Req identifies the request a
// per-request span belongs to (0 for batch-level spans).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// but not kept.
const maxSpans = 1 << 18

// tracer keeps sampled spans in memory until the run ends. Times are
// nanoseconds since the tracer's start.
type tracer struct {
	start   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// add records a span and returns its index (-1 if the buffer is full).
func (t *tracer) add(name string, start, end int64, parent int32, req uint64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// nestWithin assigns each parentless span named child the span named
// parent that encloses it in time. Calls made through shared wrappers
// (the clock, the vault store) cannot tell which goroutine's span
// caused them; containment recovers it.
func (t *tracer) nestWithin(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []int32
	for i, s := range t.spans {
		if s.Name == parent {
			parents = append(parents, int32(i))
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != child || s.Parent >= 0 {
			continue
		}
		for _, p := range parents {
			if ps := t.spans[p]; ps.Start <= s.Start && s.End <= ps.End {
				s.Parent = p
				break
			}
		}
	}
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sampled reports whether an item with this key is one of the 1 in
// every sampled for tracing.
func sampled(key uint64, every uint64) bool { return splitmix(key)%every == 0 }

// threadCPU is the calling thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID). It excludes time the thread spent
// blocked, so around a blocking receive it measures the call's work,
// not its wait. The caller must be locked to its thread.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
