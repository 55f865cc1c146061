package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// simReport is the BENCH_sim.json document: candidate-evaluation
// throughput of the three simulator entry points on the artifact's
// canonical point, plus the steady-state allocation count of the
// incremental path. Every incremental result is cross-checked bitwise
// against a full replay before anything is timed.
type simReport struct {
	Note       string `json:"note"`
	Go         string `json:"go"`
	Arch       string `json:"arch"`
	Cores      int    `json:"cores"`
	P          int    `json:"p"`
	V          int    `json:"v"`
	S          int    `json:"s"`
	N          int    `json:"n"`
	Candidates int    `json:"candidates"`

	// The top-level rates are the all-cores row, kept flat for
	// compatibility with earlier baselines; Rows carries the full
	// per-core-count breakdown (GOMAXPROCS=1 and all cores).
	FullPerSec  float64 `json:"full_candidates_per_sec"`
	IncrPerSec  float64 `json:"incremental_candidates_per_sec"`
	BatchPerSec float64 `json:"batched_candidates_per_sec"`

	IncrSpeedup  float64 `json:"incremental_speedup"`
	BatchSpeedup float64 `json:"batched_speedup"`

	Rows []simThroughput `json:"rows"`

	AllocsPerCandidate float64 `json:"allocs_per_candidate"`
}

// simThroughput is one GOMAXPROCS configuration's measured rates. The
// full and incremental paths are single-threaded, so their rates pin the
// scheduler overhead; the batched path is the one that scales.
type simThroughput struct {
	Cores       int     `json:"cores"`
	FullPerSec  float64 `json:"full_candidates_per_sec"`
	IncrPerSec  float64 `json:"incremental_candidates_per_sec"`
	BatchPerSec float64 `json:"batched_candidates_per_sec"`

	IncrSpeedup  float64 `json:"incremental_speedup"`
	BatchSpeedup float64 `json:"batched_speedup"`
}

// simLCG is a tiny deterministic generator for the candidate walk, so
// BENCH_sim.json measures the same workload on every machine.
type simLCG uint64

func (l *simLCG) next(n int) int {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int((uint64(*l) >> 33) % uint64(n))
}

// simDisplace moves ops[from] to position to, shifting the ops between
// (the same displacement primitive the optimizer's operators use).
func simDisplace(ops []sched.Op, from, to int) {
	op := ops[from]
	if from < to {
		copy(ops[from:], ops[from+1:to+1])
	} else {
		copy(ops[to+1:], ops[to:from])
	}
	ops[to] = op
}

func simClone(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = make([][]sched.Op, len(s.Stages))
	for k := range s.Stages {
		c.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	}
	return &c
}

// simCandidates walks deterministic local moves from the seed, keeping
// the first n distinct orders that simulate successfully (invalid moves
// are reverted, exactly like rejected annealer proposals).
func simCandidates(seed *sched.Schedule, o sim.Options, n int) ([]*sched.Schedule, error) {
	rng := simLCG(1)
	cur := simClone(seed)
	out := make([]*sched.Schedule, 0, n)
	for tries := 0; len(out) < n && tries < 64*n; tries++ {
		cand := simClone(cur)
		k := rng.next(len(cand.Stages))
		ops := cand.Stages[k]
		if len(ops) < 2 {
			continue
		}
		switch rng.next(3) {
		case 0: // adjacent swap
			i := rng.next(len(ops) - 1)
			ops[i], ops[i+1] = ops[i+1], ops[i]
		case 1: // short shift
			from := rng.next(len(ops))
			to := from + rng.next(7) - 3
			if to < 0 {
				to = 0
			}
			if to >= len(ops) {
				to = len(ops) - 1
			}
			if to == from {
				continue
			}
			simDisplace(ops, from, to)
		default: // long displace
			from := rng.next(len(ops))
			to := rng.next(len(ops))
			if to == from {
				continue
			}
			simDisplace(ops, from, to)
		}
		co := o
		co.Sched = cand
		if _, err := sim.RunReference(co); err != nil {
			continue
		}
		out = append(out, cand)
		cur = cand
	}
	if len(out) < n {
		return nil, fmt.Errorf("candidate walk stalled at %d/%d valid orders", len(out), n)
	}
	return out, nil
}

// runSimBench measures candidate-evaluation throughput at the artifact's
// canonical point: full replay by the reference runner (sim.RunReference)
// vs one incremental Session vs batched EvaluateMany, over the same
// deterministic candidate set. It refuses to report if any incremental
// result diverges bitwise from the full replay.
func runSimBench(candidates int, out string) error {
	a, err := opt.Discovered()
	if err != nil {
		return err
	}
	seed, err := a.PresetSchedule()
	if err != nil {
		return err
	}
	o := sim.Options{Costs: a.Costs(), MakespanOnly: true}
	cands, err := simCandidates(seed, o, candidates)
	if err != nil {
		return err
	}

	so := o
	so.Sched = cands[0]
	se, err := sim.NewSession(so)
	if err != nil {
		return err
	}
	// Correctness gate before any timing: every candidate must evaluate
	// bitwise-identically through the session.
	for i, c := range cands {
		co := o
		co.Sched = c
		full, err := sim.RunReference(co)
		if err != nil {
			return fmt.Errorf("full replay of candidate %d: %w", i, err)
		}
		inc, err := se.Eval(c)
		if err != nil {
			return fmt.Errorf("incremental replay of candidate %d: %w", i, err)
		}
		if math.Float64bits(full.IterTime) != math.Float64bits(inc.IterTime) {
			return fmt.Errorf("candidate %d diverges: full %.17g, incremental %.17g", i, full.IterTime, inc.IterTime)
		}
	}

	const minDur = 500 * time.Millisecond
	timeLoop := func(eval func(i int) error) (float64, error) {
		done := 0
		t0 := time.Now()
		for time.Since(t0) < minDur {
			for i := range cands {
				if err := eval(i); err != nil {
					return 0, err
				}
			}
			done += len(cands)
		}
		return float64(done) / time.Since(t0).Seconds(), nil
	}

	// measure times all three paths at the current GOMAXPROCS setting.
	measure := func(cores int) (simThroughput, error) {
		prev := runtime.GOMAXPROCS(cores)
		defer runtime.GOMAXPROCS(prev)
		row := simThroughput{Cores: cores}
		var err error
		if row.FullPerSec, err = timeLoop(func(i int) error {
			co := o
			co.Sched = cands[i]
			_, err := sim.RunReference(co)
			return err
		}); err != nil {
			return row, err
		}
		if row.IncrPerSec, err = timeLoop(func(i int) error {
			_, err := se.Eval(cands[i])
			return err
		}); err != nil {
			return row, err
		}
		if row.BatchPerSec, err = timeLoop(func(i int) error {
			if i != 0 {
				return nil // one EvaluateMany call covers the whole set
			}
			rs, err := sim.EvaluateMany(context.Background(), cands, o, 0)
			if err != nil {
				return err
			}
			for j, r := range rs {
				if r == nil {
					return fmt.Errorf("batched evaluation dropped candidate %d", j)
				}
			}
			return nil
		}); err != nil {
			return row, err
		}
		if row.FullPerSec > 0 {
			row.IncrSpeedup = row.IncrPerSec / row.FullPerSec
			row.BatchSpeedup = row.BatchPerSec / row.FullPerSec
		}
		return row, nil
	}

	allCores := runtime.GOMAXPROCS(0)
	row1, err := measure(1)
	if err != nil {
		return err
	}
	rowN, err := measure(allCores)
	if err != nil {
		return err
	}

	// Steady-state allocations of one incremental evaluation, after the
	// timing loops above have warmed every buffer.
	const allocRounds = 200
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < allocRounds; r++ {
		if _, err := se.Eval(cands[r%len(cands)]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / allocRounds

	rep := simReport{
		Note: "simulator fast-path throughput at the discovered-schedule artifact's point; " +
			"regenerate with `make bench-sim`",
		Go: runtime.Version(), Arch: runtime.GOARCH, Cores: runtime.NumCPU(),
		P: a.P, V: a.V, S: a.S, N: a.N,
		Candidates:         len(cands),
		FullPerSec:         rowN.FullPerSec,
		IncrPerSec:         rowN.IncrPerSec,
		BatchPerSec:        rowN.BatchPerSec,
		IncrSpeedup:        rowN.IncrSpeedup,
		BatchSpeedup:       rowN.BatchSpeedup,
		Rows:               []simThroughput{row1, rowN},
		AllocsPerCandidate: allocs,
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close() //nolint:errcheck // encode error wins
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("sim bench: P=%d V=%d S=%d N=%d, %d candidates, %s on %s (%d cores)\n",
		rep.P, rep.V, rep.S, rep.N, rep.Candidates, rep.Go, rep.Arch, rep.Cores)
	for _, row := range rep.Rows {
		fmt.Printf("  [%d core(s)]\n", row.Cores)
		fmt.Printf("    full replay   %.0f candidates/s\n", row.FullPerSec)
		fmt.Printf("    incremental   %.0f candidates/s (%.1fx)\n", row.IncrPerSec, row.IncrSpeedup)
		fmt.Printf("    batched       %.0f candidates/s (%.1fx)\n", row.BatchPerSec, row.BatchSpeedup)
	}
	fmt.Printf("  incremental steady state: %.2f allocs/candidate\n", rep.AllocsPerCandidate)
	fmt.Printf("  report        written to %s\n", out)
	return nil
}
