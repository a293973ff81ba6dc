//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Live runs split the host's CPUs between the generator and the
// server: the generator process runs on the first CPU this process may
// use and the server process on the second, each with GOMAXPROCS sized
// to its one CPU. Sharing both CPUs, each process's threads queued
// behind the other's as the host happened to schedule them; pinned,
// the lowest of a commit run's ten part p99s (the latency floor) spread
// 0.005 of its median over runs of one build instead of 0.065, and p50
// 0.04 instead of 0.12. On a host with one CPU nothing is pinned.

// startCPUs is the CPUs this process could run on when it started.
var startCPUs = allowedCPUs()

// genCPUs is how many CPUs the generator's goroutines run on: 1 once
// pinGenerator has pinned it.
var genCPUs = len(startCPUs)

// serverCPU is the CPU the servers pin themselves to, or -1 if the
// generator is not pinned.
var serverCPU = -1

// pinGenerator pins this process, the generator, to its first CPU if
// the host can split; the servers it launches then pin themselves to
// serverCPU.
func pinGenerator() error {
	if len(startCPUs) < 2 || serverCPU >= 0 {
		return nil
	}
	if err := pinProcess(startCPUs[0]); err != nil {
		return err
	}
	genCPUs, serverCPU = 1, startCPUs[1]
	return nil
}

// pinServer pins the server process to cpu with one P, as the Go
// runtime would size it on a host of that one CPU.
func pinServer(cpu int) error {
	if err := pinProcess(cpu); err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// cpuMask is a sched_setaffinity CPU set, with room for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return nil // treated as a host that cannot split
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// pinProcess restricts every thread of this process to CPU cpu;
// threads created later inherit the restriction from the thread that
// creates them. The thread list is walked until a pass finds every
// thread pinned, so a thread started during a pass is not missed.
func pinProcess(cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	pinned := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, e)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
