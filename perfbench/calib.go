package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// refKernelUS is the thread CPU time, in µs, the reference kernel is
// taken to need at reference core speed. cpu_us_per_event is reported at
// that speed: the process CPU per event times refKernelUS over the
// kernel's measured median. The shared VM's cores change speed by tens of
// percent over minutes, and the same work then costs that much more CPU
// time; the kernel, timed in the same run, moves with them (README.md).
const refKernelUS = 4500

// calRecord is the kernel's payload: the shape of a metered reading.
type calRecord struct {
	Actor  string
	Slot   int
	Energy []float64
	Tags   map[string]int
}

var calSink int

// refKernel is fixed work made of what the node spends its CPU on: JSON
// encoding and decoding, small allocations, map updates and sorting. It
// uses no code of the program, so no change to the program moves it.
func refKernel() {
	r := calRecord{Actor: "household-000123", Energy: make([]float64, 48), Tags: map[string]int{}}
	for i := 0; i < 100; i++ {
		r.Slot = i
		for j := range r.Energy {
			r.Energy[j] = float64((i*31+j*17)%97) * 1.5
		}
		r.Tags[strconv.Itoa(i%16)] = i
		b, _ := json.Marshal(r)
		var q calRecord
		_ = json.Unmarshal(b, &q)
		sort.Float64s(q.Energy)
		calSink += len(b)
	}
}

// threadCPU is the CPU time of the calling OS thread, in nanoseconds.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator times the reference kernel by its own thread's CPU clock,
// which counts neither waiting for a core nor the other goroutines.
type calibrator struct {
	samples []float64     // µs per kernel run
	spent   time.Duration // CPU the kernel runs used, to take out of process CPU
}

func (c *calibrator) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	refKernel()
	d := threadCPU() - t0
	c.samples = append(c.samples, float64(d)/1e3)
	c.spent += d
}

// atRefSpeed scales CPU µs per event measured in this run to reference
// core speed.
func (c *calibrator) atRefSpeed(cpuUSPerEvent float64) float64 {
	return ratio(cpuUSPerEvent*refKernelUS, median(c.samples))
}
