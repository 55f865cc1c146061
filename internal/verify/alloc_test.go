package verify

import (
	"errors"
	"testing"

	"mepipe/internal/sched"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a random share of Puts, so pooled scratch reallocates at random
// and allocation counts stop being deterministic.
var raceEnabled bool

// TestCertifyAllocsConstant pins certification's allocation profile: a
// rejected cyclic schedule and a feasible one each allocate a small
// constant number of objects (the certificate or counterexample and its
// strings), and the count does not grow with the schedule — the cycle
// witness and the memory sweep work entirely in pooled arrays.
func TestCertifyAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const maxAllocs = 16
	measure := func(p, n int) (cyclic, feasible float64) {
		s, err := sched.DAPPLE(p, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Stage 0 running every backward before any forward deadlocks
		// with a residual that spans the whole schedule.
		bad := cloneStages(s)
		ops := bad.Stages[0][:0]
		for _, kind := range []sched.Kind{sched.B, sched.F} {
			for _, op := range s.Stages[0] {
				if op.Kind == kind {
					ops = append(ops, op)
				}
			}
		}
		bad.Stages[0] = ops
		budget := SlotBudget(make([]int, p))
		for k := range budget.ActBudget {
			budget.ActBudget[k] = int64(p - k)
		}
		var ce *CycleError
		if _, err := Certify(bad, Options{Budget: budget, AssumeComplete: true}); !errors.As(err, &ce) {
			t.Fatalf("%dx%d: want *CycleError, got %v", p, n, err)
		}
		if _, err := Certify(s, Options{Budget: budget}); err != nil {
			t.Fatalf("%dx%d: %v", p, n, err)
		}
		cyclic = testing.AllocsPerRun(50, func() {
			_, _ = Certify(bad, Options{Budget: budget, AssumeComplete: true})
		})
		feasible = testing.AllocsPerRun(50, func() {
			_, _ = Certify(s, Options{Budget: budget})
		})
		return cyclic, feasible
	}
	smallCyc, smallOK := measure(4, 8)
	bigCyc, bigOK := measure(8, 32)
	t.Logf("allocs/op: cyclic %v -> %v, feasible %v -> %v (4x8 -> 8x32)", smallCyc, bigCyc, smallOK, bigOK)
	if bigCyc > maxAllocs || bigOK > maxAllocs {
		t.Errorf("certification allocates %v (cyclic) / %v (feasible) objects, want at most %d", bigCyc, bigOK, maxAllocs)
	}
	if bigCyc > smallCyc || bigOK > smallOK {
		t.Errorf("allocations grow with the schedule: cyclic %v -> %v, feasible %v -> %v", smallCyc, bigCyc, smallOK, bigOK)
	}
}
