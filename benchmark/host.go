package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine a run measured on. None of it is gated:
// it explains a slow run. Steal time shows a neighbour taking the CPU; the
// calibration loop, timed before and after the workload, shows slow host
// phases that steal does not.
type hostRecord struct {
	stealBefore, stealAfter float64
	calBefore, calAfter     time.Duration
	timed                   time.Duration
	t0                      time.Time
}

func (h *hostRecord) beginTimed() {
	h.calBefore = calibrate()
	h.stealBefore = stealSeconds()
	h.t0 = time.Now()
}

func (h *hostRecord) endTimed() {
	h.timed = time.Since(h.t0)
	h.stealAfter = stealSeconds()
	h.calAfter = calibrate()
}

func (h *hostRecord) print(tag string) {
	fmt.Printf("%-12s host nproc=%d gomaxprocs=%d go=%s timed_s=%.3f steal_s=%.2f calib_before_ms=%.3f calib_after_ms=%.3f\n",
		tag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), h.timed.Seconds(),
		h.stealAfter-h.stealBefore, msOf(h.calBefore), msOf(h.calAfter))
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// calSink keeps the calibration loop's result alive.
var calSink uint64

// calibrate times a fixed single-threaded integer loop (tens of
// milliseconds on a current x86 core).
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calSink += x
	return time.Since(t0)
}

// stealSeconds reads the machine-wide steal time from /proc/stat, or 0
// where the kernel does not report it.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return v / 100 // USER_HZ
		}
	}
	return 0
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
