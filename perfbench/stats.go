package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the
// nearest-rank rule; xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is the process-wide resource use at one instant: CPU from
// getrusage, bytes written from /proc/self/io and the Go heap counters.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + sys
	wchar   int64
	alloc   uint64 // MemStats.TotalAlloc
	gcPause time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wchar:   readWchar(),
		alloc:   m.TotalAlloc,
		gcPause: time.Duration(m.PauseTotalNs),
	}
}

// readWchar returns the bytes this process passed to write-like system
// calls (journal, WAL, ledger and socket writes alike), or 0 where
// /proc/self/io is unavailable.
func readWchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// procDelta is the resource use between two samples.
type procDelta struct {
	wall    time.Duration
	cpu     time.Duration
	wchar   int64
	alloc   uint64
	gcPause time.Duration
}

func (b procSample) since(a procSample) procDelta {
	return procDelta{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		wchar:   b.wchar - a.wchar,
		alloc:   b.alloc - a.alloc,
		gcPause: b.gcPause - a.gcPause,
	}
}

// rssSampler tracks the largest resident set size of the process while
// it runs. Set-up is left out: its peak depends on when the collector
// runs during set-up, not on the work measured.
type rssSampler struct {
	stopc, done chan struct{}
	maxKB       int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{}), maxKB: residentKB()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.maxKB = max(s.maxKB, residentKB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return float64(max(s.maxKB, residentKB())) / 1024
}

// residentKB is the process's resident set size now, from
// /proc/self/statm, or its maximum so far from getrusage where that file
// is unavailable.
func residentKB() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize()) / 1024
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss
}

// fileSize returns the size of path, 0 if it does not exist.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// timeSetup runs build n times and returns the median wall time in
// seconds; every build but the last is released with drop.
func timeSetup[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var (
		v     T
		times []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, err := build()
		if err != nil {
			return v, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			drop(got)
			// Every set-up starts from a clean heap with its pages handed
			// back, so peak RSS is one set-up's, not the leftovers of several.
			debug.FreeOSMemory()
			continue
		}
		v = got
	}
	// Collect the dropped set-ups' garbage now, so the timed phase does
	// not pay for it and peak RSS does not depend on when GC ran.
	debug.FreeOSMemory()
	return v, median(times), nil
}
