package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile for
// it to be reported: a tail figure resting on fewer is one slow request,
// not a percentile.
const minBeyond = 10

// reservoirSize bounds the latencies a phase keeps. Past it, a uniform
// reservoir sample stands in for all of them, so the benchmark's own
// memory stays flat and does not show in the program's peak RSS.
const reservoirSize = 1 << 16

// cost is how long something took on the wall clock and on the process
// CPU clock.
type cost struct{ wall, cpu time.Duration }

// stamp is a reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuNow()} }

// since is the cost from st to now.
func (st stamp) since() cost {
	cpu := cpuNow()
	return cost{time.Since(st.wall), cpu - st.cpu}
}

// samples collects the per-operation latencies of one closed-loop phase,
// on three clocks: the wall clock, the process CPU clock, and normalized
// time (see speed.go). The gated figures are in normalized time; the
// others are printed beside them.
type samples struct {
	wall, cpu, norm []float64 // seconds; a uniform sample of the completed operations
	cls             []uint8   // class of each sample, an index into classes
	classes         []string
	count           []int // completed operations per class
	done            int   // operations completed
	ops             int   // operations attempted
	failed          int   // operations with a wrong status or output
	sumCPU, sumNorm time.Duration
	elapsed         cost // the whole phase
	speed           *speed
	rng             *rand.Rand
}

func newSamples() *samples {
	return &samples{speed: newSpeed(), rng: rand.New(rand.NewSource(1))}
}

// add records one operation of a class. A failed operation counts against
// the attempted total but contributes no latency.
// Between operations it keeps the speed measurement current.
func (s *samples) add(class string, d cost, ok bool) {
	defer s.speed.tick()
	s.ops++
	if !ok {
		s.failed++
		return
	}
	c := s.classIndex(class)
	s.count[c]++
	s.done++
	n := s.speed.normalize(d.cpu)
	s.sumCPU += d.cpu
	s.sumNorm += n
	if len(s.cpu) < reservoirSize {
		s.wall = append(s.wall, d.wall.Seconds())
		s.cpu = append(s.cpu, d.cpu.Seconds())
		s.norm = append(s.norm, n.Seconds())
		s.cls = append(s.cls, c)
	} else if j := s.rng.Intn(s.done); j < reservoirSize {
		s.wall[j], s.cpu[j], s.norm[j], s.cls[j] = d.wall.Seconds(), d.cpu.Seconds(), n.Seconds(), c
	}
}

func (s *samples) classIndex(class string) uint8 {
	for i, c := range s.classes {
		if c == class {
			return uint8(i)
		}
	}
	s.classes = append(s.classes, class)
	s.count = append(s.count, 0)
	return uint8(len(s.classes) - 1)
}

// classCount is the number of completed operations of a class.
func (s *samples) classCount(class string) int {
	for i, c := range s.classes {
		if c == class {
			return s.count[i]
		}
	}
	return 0
}

// percentile returns the nearest-rank q-quantile of the normalized
// latencies in milliseconds, or NaN when fewer than minBeyond samples lie
// beyond it.
func (s *samples) percentile(q float64) float64 { return s.classPercentile("", q) }

// classPercentile is percentile over one class; the empty class means
// every operation.
func (s *samples) classPercentile(class string, q float64) float64 {
	return s.percentileOf(s.norm, class, q)
}

func (s *samples) percentileOf(lat []float64, class string, q float64) float64 {
	var xs []float64
	for i, x := range lat {
		if class == "" || s.classes[s.cls[i]] == class {
			xs = append(xs, x)
		}
	}
	sort.Float64s(xs)
	return percentileMS(xs, q)
}

// medianMS is the median normalized latency in milliseconds, however few
// the samples.
func (s *samples) medianMS() float64 {
	return 1000 * median(append([]float64(nil), s.norm...))
}

// percentileMS is the nearest-rank q-quantile of sorted latencies (seconds)
// in milliseconds. It is NaN unless at least minBeyond samples lie above
// the returned rank.
func percentileMS(sorted []float64, q float64) float64 {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < minBeyond {
		return math.NaN()
	}
	return 1000 * sorted[idx]
}

// endToEnd returns the gated end-to-end metrics every workload reports,
// in normalized time: throughput and the median and 90th-percentile
// latency. Percentiles the sample count cannot support are left out.
func (s *samples) endToEnd() []metric {
	return s.figures(s.norm, s.sumNorm, "_norm")
}

// ungated returns the figures printed beside the gated ones: the same on
// the process CPU clock, and on the wall clock, which is what the one
// client waited, host phases included.
func (s *samples) ungated() []metric {
	return append(s.figures(s.cpu, s.sumCPU, "_cpu"), s.figures(s.wall, s.elapsed.wall, "")...)
}

// figures are throughput (operations completed per second of busy) and
// the median and 90th-percentile latency of lat, named with clock.
func (s *samples) figures(lat []float64, busy time.Duration, clock string) []metric {
	return keep(nil,
		metric{"ops_per" + clock + "_s", "1/s", ratio(float64(s.done), busy.Seconds())},
		metric{"p50" + clock + "_ms", "ms", s.percentileOf(lat, "", 0.5)},
		metric{"p90" + clock + "_ms", "ms", s.percentileOf(lat, "", 0.9)},
	)
}

// keep appends the metrics whose value is a number.
func keep(ms []metric, more ...metric) []metric {
	for _, m := range more {
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			ms = append(ms, m)
		}
	}
	return ms
}

// digest is the output check's fingerprint of a response body.
type digest [sha256.Size]byte

func digestOf(body []byte) digest { return sha256.Sum256(body) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
