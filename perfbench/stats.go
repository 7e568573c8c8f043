package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssWindow is how often the RSS monitor reads and restarts the
// kernel's resident-set high-water mark.
const rssWindow = time.Second

// rssMonitor records the resident-set high-water mark of each window of
// a timed phase. Restarting the mark after set-up keeps set-up, and any
// earlier phase, out of the first window.
type rssMonitor struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// startRSSMonitor returns freed heap to the OS, restarts the high-water
// mark and starts reading it once per rssWindow.
func startRSSMonitor() *rssMonitor {
	debug.FreeOSMemory()
	m := &rssMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.peaks = append(m.peaks, peakRSSMB())
				return
			case <-tick.C:
				m.peaks = append(m.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return m
}

// finish stops the monitor and returns the 90th percentile of the
// window peaks. One window whose peak depends on how two large apps
// happened to overlap moves it little, unlike the single largest peak.
func (m *rssMonitor) finish() float64 {
	close(m.stop)
	<-m.done
	return quantile(m.peaks, 0.9)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (writing 5 to clear_refs needs Linux 4.0 or later; where it fails,
// every window reads the process-lifetime peak).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MiB: VmHWM from
// /proc when available, else the process-lifetime getrusage maximum.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fs := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
			if kb, err := strconv.ParseFloat(fs[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is a read of the Go runtime counters the per-layer table
// reports as deltas over a phase.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// addGoDeltas stores the runtime's work between from and to in metrics.
func addGoDeltas(m metrics, from, to goStats) {
	m.set("go.alloc_mb", float64(to.allocBytes-from.allocBytes)/(1<<20), "MB")
	m.set("go.gc_cycles", float64(to.gcCycles-from.gcCycles), "count")
	m.set("go.gc_pause_ms", float64(to.pauseNs-from.pauseNs)/1e6, "ms")
}
