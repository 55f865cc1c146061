package verify

import (
	"fmt"

	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/sched"
)

// Budget bounds the static memory sweep. ActBudget[k] is stage k's cap;
// FamilyBytes and GradBytes give the per-op footprints charged by the
// sweep (the same quantities sim.Costs reports). Nil footprints select
// unit slot counting: one slot per live family, no gradient retention —
// the right model for proving schedule-shape bounds like "DAPPLE retains
// at most p−k micro-batches on stage k".
type Budget struct {
	ActBudget   []int64
	FamilyBytes func(stage int, f sched.Op) int64
	GradBytes   func(stage int, b sched.Op) int64
}

// SlotBudget is a unit-slot Budget: stage k may retain at most
// maxFamilies[k] concurrently live activation families.
func SlotBudget(maxFamilies []int) *Budget {
	caps := make([]int64, len(maxFamilies))
	for i, m := range maxFamilies {
		caps[i] = int64(m)
	}
	return &Budget{ActBudget: caps}
}

// Footprints is the memory slice of the simulator's cost model
// (sim.Costs satisfies it): retained activation bytes per completed
// forward, and extra retention between a split backward and its weight
// gradients.
type Footprints interface {
	ActBytes(stage int, f sched.Op) int64
	GradBytes(stage int, b sched.Op) int64
}

// PlanBudget derives a byte-accurate Budget from a memory plan (§4.5)
// and a cost model's footprints: certifying against it proves the
// schedule's static retention fits each stage's activation budget.
func PlanBudget(plan *memplan.Plan, fp Footprints) *Budget {
	return &Budget{
		ActBudget:   plan.ActBudget,
		FamilyBytes: fp.ActBytes,
		GradBytes:   fp.GradBytes,
	}
}

// BudgetError is the memory-safety counterexample: the first op at which
// a stage's swept retention exceeds its budget, with what was live.
type BudgetError struct {
	Schedule string
	Stage    int
	// OpIndex is the offending op's position in the stage's list.
	OpIndex int
	Op      sched.Op
	// Live is the retention the op's allocation would reach; Budget is
	// the stage's cap (both in the Budget's units — bytes, or family
	// slots for unit budgets). Families counts the live families at the
	// overflow, including the op's own.
	Live, Budget int64
	Families     int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("verify: %s stage %d: retention exceeds budget at op %d (%v): %d live families, %d > budget %d",
		e.Schedule, e.Stage, e.OpIndex, e.Op, e.Families, e.Live, e.Budget)
}

func (e *BudgetError) Unwrap() error { return errs.ErrUncertified }

// sweepSetup resolves b's per-op charges (unit slots when b or its
// footprint functions are nil), checks its stage count, and sizes the
// certificate's peak arrays.
func sweepSetup(s *sched.Schedule, b *Budget, cert *Certificate) (famBytes, gradBytes func(int, sched.Op) int64, err error) {
	famBytes = func(stage int, op sched.Op) int64 { return 1 }
	gradBytes = func(stage int, op sched.Op) int64 { return 0 }
	if b != nil {
		if b.FamilyBytes != nil {
			famBytes = b.FamilyBytes
		}
		if b.GradBytes != nil {
			gradBytes = b.GradBytes
		}
		if b.ActBudget != nil && len(b.ActBudget) != s.P {
			return nil, nil, &ShapeError{Schedule: s.String(),
				Detail: fmt.Sprintf("budget has %d stage entries, want %d", len(b.ActBudget), s.P)}
		}
	}
	cert.PeakFamilies = make([]int, s.P)
	if b != nil {
		cert.PeakBytes = make([]int64, s.P)
	}
	return famBytes, gradBytes, nil
}

// sweep walks each stage's op list in program order, replaying the
// simulator's retention rules, and records peak live families (always)
// and peak bytes under b's footprints (when b is non-nil). It fails the
// moment a stage's retention exceeds its budget. Families are keyed by
// Op.Key in maps; checkMemory is the same sweep on the dense op index.
func sweep(s *sched.Schedule, b *Budget, cert *Certificate) error {
	famBytes, gradBytes, err := sweepSetup(s, b, cert)
	if err != nil {
		return err
	}
	for k, ops := range s.Stages {
		var live int64
		fams := map[sched.Op]int64{} // family key -> retained bytes
		pieces := map[sched.Op]int{} // family key -> executed WPieces
		peakFams, peakBytes := 0, int64(0)
		for i, op := range ops {
			key := op.Key()
			switch op.Kind {
			case sched.F:
				add := famBytes(k, op)
				fams[key] += add
				live += add
			case sched.B:
				live -= fams[key]
				delete(fams, key)
			case sched.BAct:
				add := gradBytes(k, op)
				fams[key] += add
				live += add
			case sched.W:
				live -= fams[key]
				delete(fams, key)
			case sched.WPiece:
				pieces[key]++
				if pieces[key] == s.WPieces {
					live -= fams[key]
					delete(fams, key)
					delete(pieces, key)
				}
			}
			if len(fams) > peakFams {
				peakFams = len(fams)
			}
			if live > peakBytes {
				peakBytes = live
			}
			if b != nil && b.ActBudget != nil && live > b.ActBudget[k] {
				return &BudgetError{
					Schedule: s.String(), Stage: k, OpIndex: i, Op: op,
					Live: live, Budget: b.ActBudget[k], Families: len(fams),
				}
			}
		}
		cert.PeakFamilies[k] = peakFams
		if b != nil {
			cert.PeakBytes[k] = peakBytes
		}
	}
	return nil
}

// checkMemory is Certify's memory pass: sweep with each stage's family
// maps replaced by pooled arrays indexed by the family's dense number
// within the stage — a retained value, a live flag, and a WPiece counter.
// The arrays keep the maps' semantics exactly: a zero-byte charge still
// makes a family live, and WPieces count whether or not their family is.
// An op without a dense id (only AssumeComplete with a hand-built table
// gets here with one) hands the whole sweep to the map version, which
// reaches the same verdict on every op before it.
func checkMemory(s *sched.Schedule, b *Budget, cert *Certificate) error {
	famBytes, gradBytes, err := sweepSetup(s, b, cert)
	if err != nil {
		return err
	}
	x := sched.IndexOf(s)
	nf := x.Families() / s.P
	sc := kahnPool.Get().(*kahnScratch)
	defer kahnPool.Put(sc)
	val := kgrow(sc.famVal, nf)
	alive := kgrow(sc.famLive, nf)
	pieces := kgrow(sc.famPieces, nf)
	sc.famVal, sc.famLive, sc.famPieces = val, alive, pieces
	wPieces := int32(s.WPieces)
	for k, ops := range s.Stages {
		clear(val)
		clear(alive)
		clear(pieces)
		base := int32(k * nf)
		var live int64
		fams := 0
		peakFams, peakBytes := 0, int64(0)
		charge := func(f int32, add int64) {
			if !alive[f] {
				alive[f] = true
				fams++
			}
			val[f] += add
			live += add
		}
		release := func(f int32) {
			live -= val[f]
			if alive[f] {
				alive[f] = false
				fams--
			}
			val[f] = 0
		}
		for i, op := range ops {
			id := x.ID(k, op)
			if id < 0 {
				return sweep(s, b, cert)
			}
			f := x.FamilyOf(id) - base
			switch op.Kind {
			case sched.F:
				charge(f, famBytes(k, op))
			case sched.B, sched.W:
				release(f)
			case sched.BAct:
				charge(f, gradBytes(k, op))
			case sched.WPiece:
				pieces[f]++
				if pieces[f] == wPieces {
					release(f)
					pieces[f] = 0
				}
			}
			if fams > peakFams {
				peakFams = fams
			}
			if live > peakBytes {
				peakBytes = live
			}
			if b != nil && b.ActBudget != nil && live > b.ActBudget[k] {
				return &BudgetError{
					Schedule: s.String(), Stage: k, OpIndex: i, Op: op,
					Live: live, Budget: b.ActBudget[k], Families: fams,
				}
			}
		}
		cert.PeakFamilies[k] = peakFams
		if b != nil {
			cert.PeakBytes[k] = peakBytes
		}
	}
	return nil
}
