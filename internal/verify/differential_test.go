package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"mepipe/internal/sched"
)

// The differential oracle: Certify (dense op index end to end, with map
// fallbacks) must reach exactly CertifyReference's verdict (labelled map
// graph, map-keyed sweep) — the same certificate, or the same error type
// with byte-identical text — on feasible, cyclic, over-budget and
// malformed schedules alike.

// diffPresets are the schedules the differential tests mutate: one per
// preset family, covering fused, split and fine-grained-W backwards and
// one-chunk, interleaved and wave placements.
var diffPresets = []struct {
	name  string
	build func() (*sched.Schedule, error)
}{
	{"dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(4, 8, nil) }},
	{"vpp", func() (*sched.Schedule, error) { return sched.VPP(4, 2, 8, nil) }},
	{"zb1p", func() (*sched.Schedule, error) { return sched.ZB1P(4, 8, nil) }},
	{"zbv", func() (*sched.Schedule, error) { return sched.ZBV(4, 8, nil) }},
	{"svpp", func() (*sched.Schedule, error) {
		return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 8, Reschedule: true})
	}},
	{"svpp-split", func() (*sched.Schedule, error) {
		return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 8, Reschedule: true, Split: true})
	}},
	{"svpp-finew", func() (*sched.Schedule, error) {
		return sched.SVPP(sched.SVPPOptions{P: 2, V: 2, S: 2, N: 4, Reschedule: true, Split: true, FineGrainedW: 3})
	}},
}

// cloneStages copies s with private stage lists, so mutations leave the
// preset intact.
func cloneStages(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = make([][]sched.Op, len(s.Stages))
	for k, ops := range s.Stages {
		c.Stages[k] = append([]sched.Op(nil), ops...)
	}
	return &c
}

// mutate applies 1–3 random edits to one stage each: mostly order-only
// swaps and shifts (the optimizer's neighbourhood, which produce cycles
// and budget overflows), and when malformed is set also drops,
// duplicates and retags (which exercise the incomplete-universe and
// no-dense-id fallbacks).
func mutate(rng *rand.Rand, s *sched.Schedule, malformed bool) {
	for e := 1 + rng.Intn(3); e > 0; e-- {
		k := rng.Intn(len(s.Stages))
		ops := s.Stages[k]
		if len(ops) < 2 {
			continue
		}
		i, j := rng.Intn(len(ops)), rng.Intn(len(ops))
		edit := rng.Intn(11)
		if !malformed {
			edit %= 8
		}
		switch {
		case edit < 4: // swap
			ops[i], ops[j] = ops[j], ops[i]
		case edit < 8: // shift op i to position j
			op := ops[i]
			copy(ops[i:], ops[i+1:])
			copy(ops[j+1:], ops[j:len(ops)-1])
			ops[j] = op
		case edit == 8: // drop
			s.Stages[k] = append(ops[:i:i], ops[i+1:]...)
		case edit == 9: // duplicate op i at position j
			s.Stages[k] = append(ops[:j:j], append([]sched.Op{ops[i]}, ops[j:]...)...)
		default: // retag a weight-gradient op into the other W form
			switch ops[i].Kind {
			case sched.W:
				ops[i].Kind, ops[i].Piece = sched.WPiece, rng.Intn(2)
			case sched.WPiece:
				ops[i].Kind, ops[i].Piece = sched.W, 0
			}
		}
	}
}

// diffBudget returns no budget, a unit-slot budget, or a byte budget
// whose footprints include zero charges, with each stage's cap drawn
// around the unmutated schedule's peak so some mutations overflow it.
func diffBudget(rng *rand.Rand, base *sched.Schedule, kind int) *Budget {
	var b *Budget
	switch kind % 3 {
	case 0:
		return nil
	case 1:
		b = &Budget{}
	case 2:
		b = &Budget{
			FamilyBytes: func(stage int, f sched.Op) int64 { return int64((f.Micro + f.Slice + stage) % 3) },
			GradBytes:   func(stage int, op sched.Op) int64 { return int64(op.Chunk % 2) },
		}
	}
	cert, err := CertifyReference(base, Options{Budget: b})
	if err != nil {
		panic(err)
	}
	b.ActBudget = make([]int64, base.P)
	for k := range b.ActBudget {
		peak := int64(cert.PeakFamilies[k])
		if cert.PeakBytes != nil {
			peak = cert.PeakBytes[k]
		}
		b.ActBudget[k] = peak + int64(rng.Intn(3)) - 1
	}
	return b
}

// verdict tallies which outcome a differential case reached.
type verdict struct{ ok, cycle, budget, other int }

// checkSameVerdict certifies s both ways and fails on any difference.
func checkSameVerdict(t *testing.T, s *sched.Schedule, opts Options, v *verdict) {
	t.Helper()
	got, gotErr := Certify(s, opts)
	want, wantErr := CertifyReference(s, opts)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%v: Certify err %v, CertifyReference err %v", s, gotErr, wantErr)
	case gotErr != nil:
		if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%v: error mismatch\n  Certify:           %T %v\n  CertifyReference:  %T %v",
				s, gotErr, gotErr, wantErr, wantErr)
		}
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%v: error fields differ\n  Certify:           %#v\n  CertifyReference:  %#v", s, gotErr, wantErr)
		}
		switch gotErr.(type) {
		case *CycleError:
			v.cycle++
		case *BudgetError:
			v.budget++
		default:
			v.other++
		}
	default:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: certificate mismatch\n  Certify:           %+v\n  CertifyReference:  %+v", s, got, want)
		}
		v.ok++
	}
}

// TestCertifyMatchesReference pins Certify to the frozen reference over
// every preset family × random reorderings × no/slot/byte budgets, with
// and without AssumeComplete, and requires each verdict class to occur.
func TestCertifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var v verdict
	for _, pr := range diffPresets {
		base, err := pr.build()
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for i := 0; i < 120; i++ {
			s := cloneStages(base)
			if i > 0 {
				mutate(rng, s, i%4 == 3)
			}
			opts := Options{Budget: diffBudget(rng, base, i), AssumeComplete: i%2 == 1}
			checkSameVerdict(t, s, opts, &v)
		}
	}
	t.Logf("verdicts: %d certified, %d cycles, %d over budget, %d other", v.ok, v.cycle, v.budget, v.other)
	if v.ok == 0 || v.cycle == 0 || v.budget == 0 || v.other == 0 {
		t.Fatalf("differential corpus misses a verdict class: %+v", v)
	}
}

// FuzzCertifyMatchesReference is the open-ended form of
// TestCertifyMatchesReference: the fuzzer picks the preset, the mutation
// seed and count, the budget kind, and AssumeComplete.
func FuzzCertifyMatchesReference(f *testing.F) {
	for i := range diffPresets {
		f.Add(uint8(i), int64(i), uint8(1), uint8(i), false, false)
		f.Add(uint8(i), int64(i+7), uint8(3), uint8(i+1), true, true)
	}
	bases := make([]*sched.Schedule, len(diffPresets))
	for i, pr := range diffPresets {
		s, err := pr.build()
		if err != nil {
			f.Fatalf("%s: %v", pr.name, err)
		}
		bases[i] = s
	}
	f.Fuzz(func(t *testing.T, preset uint8, seed int64, rounds, budget uint8, assume, malformed bool) {
		base := bases[int(preset)%len(bases)]
		rng := rand.New(rand.NewSource(seed))
		s := cloneStages(base)
		for r := int(rounds % 8); r > 0; r-- {
			mutate(rng, s, malformed)
		}
		opts := Options{Budget: diffBudget(rng, base, int(budget)), AssumeComplete: assume}
		checkSameVerdict(t, s, opts, &verdict{})
	})
}
