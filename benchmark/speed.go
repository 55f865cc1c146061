package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// A shared host runs the same code at different speeds from one second to
// the next: a neighbour on the same physical core or memory bus slows every
// instruction, and neither the steal time nor the CPU clock shows it. On a
// 2-core cloud guest one plan-cold request took from 35 to 53 ms of CPU
// time a few seconds apart, and plan-cold throughput per CPU second ranged
// from 12.2 to 15.5 over five 30-second runs. The benchmark therefore
// measures the host's speed as it goes, with a fixed reference kernel of
// its own run between operations, and divides each operation's CPU time by
// the reference's: the normalized time is the operation's cost in
// reference kernels, at refUnit each. Over the same five runs normalized
// throughput ranged from 14.2 to 15.3.

// refUnit is the time one reference kernel stands for. The kernel takes
// about that long on a current x86 server core.
const refUnit = time.Millisecond

// refEvery is how much process CPU time passes between reference runs
// inside a phase; each run costs about refUnit, so a few per cent.
const refEvery = 50 * time.Millisecond

// refWindow is how many of the latest reference runs the speed is the
// median of: one slow run (an interrupt, a migration) does not move it.
const refWindow = 5

// refKernel is the reference: a fixed mix of the work the program does
// most — hash-map updates, a sort, float arithmetic — on buffers allocated
// once, so that it allocates nothing and never starts a garbage collection
// whose cost would depend on the program's heap.
type refKernel struct {
	m  map[int]int
	xs []int
	fs []float64
}

var (
	refOnce sync.Once
	ref     *refKernel
)

func (k *refKernel) run() {
	clear(k.m)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 16000; i++ {
		k.m[int(next()%6000)] += i
	}
	for i := range k.xs {
		k.xs[i] = int(next() >> 1)
	}
	slices.Sort(k.xs)
	s := 0.0
	for r := 0; r < 16; r++ {
		for i, v := range k.xs {
			k.fs[i] = k.fs[i]*0.5 + float64(v&1023)*1e-3
			s += k.fs[i]
		}
	}
	k.fs[0] += s * 1e-300
}

// refTime runs the reference kernel once and returns its CPU time. The
// goroutine holds its thread and the thread's own clock times it, so work
// the runtime does on other threads meanwhile is not counted.
func refTime() time.Duration {
	refOnce.Do(func() {
		ref = &refKernel{m: make(map[int]int, 8192), xs: make([]int, 4096), fs: make([]float64, 4096)}
	})
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNow()
	ref.run()
	return threadCPUNow() - t0
}

// speed tracks the host's current speed as the median of the latest
// reference runs.
type speed struct {
	recent [refWindow]time.Duration // the latest reference times, a ring
	next   int                      // the ring slot the next run fills
	cur    time.Duration            // median of recent
	last   time.Duration            // process CPU clock at the latest run
}

// newSpeed measures the speed afresh.
func newSpeed() *speed {
	sp := &speed{}
	sp.measure()
	return sp
}

// measure refills the whole window with fresh reference runs.
func (sp *speed) measure() {
	for range refWindow {
		sp.run()
	}
}

// tick runs the reference once more if refEvery of process CPU time has
// passed since the latest run.
func (sp *speed) tick() {
	if cpuNow()-sp.last >= refEvery {
		sp.run()
	}
}

func (sp *speed) run() {
	sp.recent[sp.next] = refTime()
	sp.next = (sp.next + 1) % refWindow
	sp.cur = medianRef(sp.recent)
	sp.last = cpuNow()
}

// medianRef is the median of a window of reference times.
func medianRef(w [refWindow]time.Duration) time.Duration {
	slices.Sort(w[:])
	return w[refWindow/2]
}

// normalize converts CPU time taken at the current speed into normalized
// time.
func (sp *speed) normalize(cpu time.Duration) time.Duration {
	return time.Duration(float64(cpu) * float64(refUnit) / float64(sp.cur))
}
