package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// The streaming sweep engine, the package's one grid search. Sweep evaluates
// the grids of several systems in one pass (SearchContext is a one-system
// Sweep), and is guaranteed to return, per system, byte-identical
// candidates (contents AND order) to the frozen sequential SearchReference
// — the equivalence test in sweep_test.go pins that. It gets its speed
// from three structural facts a one-candidate-at-a-time search cannot
// exploit:
//
//   - Shape-deduplicated certification. Grid points that differ only in a
//     cost knob (the recomputation mode) share a schedule shape
//     (sys, P, V, S, N, F, dynamicW). Members of a shape group are still
//     generated individually — generation order depends on relative op
//     costs, so byte-equality must be observed, not assumed — but when a
//     member's table is byte-identical to the group representative's, its
//     certification is provably the same pure function of the same bytes
//     and is skipped, and the member is re-costed through the worker's
//     bound sim.Session (Session.Recost) instead of paying a fresh bind.
//
//   - Memoized planning. Meshes, memory plans, and cost models are shared
//     across grid points (and systems) with equal inputs: the memory plan
//     is independent of the recomputation mode, and the cost model is keyed
//     by the full strategy. ZBV's cost model is built fresh per point
//     because its wave placement retarget mutates the model in place.
//
//   - Parallel branch-and-bound. Shape groups are processed by a worker
//     pool sharing a monotonically tightening atomic prefix gate: point i
//     may be skipped once any completed, non-OOM point j < i (grid order)
//     has a simulated time below i's analytic lower bound. Every gate skip
//     is provably also a sequential-pruning skip (see prefixGate), so a
//     deterministic grid-order replay reconstructs the exact sequential
//     result — including Evaluated/Pruned counters and the first error —
//     regardless of worker interleaving.
//
// EvaluateContext runs the same per-point planner (planPoint) and result
// fold (fold) on a single point, so a searched candidate and a direct
// evaluation of its strategy agree by construction.
//
// Searches do not trace: session reuse bypasses the simulator's span
// emission, so Sweep (and SearchContext) reject a sink. Trace a single
// Evaluate of the chosen candidate instead.

// SweepStats counts what the engine actually did, across all systems.
type SweepStats struct {
	// GridPoints is the number of enumerated candidate strategies.
	GridPoints int
	// Shapes is the number of distinct schedule-shape groups the grid
	// deduplicated into.
	Shapes int
	// Generated counts schedule generations; Certified counts the
	// byte-distinct schedules that went through verify.Certify.
	Generated, Certified int
	// Deduped counts grid points that reused a representative's
	// certification and session binding (certify + bind skipped; the
	// point was re-costed through Session.Recost).
	Deduped int
	// Simulated counts simulator evaluations actually run; GateSkipped
	// counts points the parallel branch-and-bound gate skipped before
	// simulation.
	Simulated, GateSkipped int
	// Evaluated and Pruned are the sequential-equivalent totals over all
	// systems (the sums of the per-system SearchResult counters).
	Evaluated, Pruned int
}

// DedupRatio is the fraction of grid points that shared a previously
// certified schedule.
func (st SweepStats) DedupRatio() float64 {
	if st.GridPoints == 0 {
		return 0
	}
	return float64(st.Deduped) / float64(st.GridPoints)
}

// PruneRate is the sequential-equivalent fraction of grid points skipped by
// the analytic lower bound.
func (st SweepStats) PruneRate() float64 {
	if st.GridPoints == 0 {
		return 0
	}
	return float64(st.Pruned) / float64(st.GridPoints)
}

// SweepResult is the outcome of one multi-system sweep.
type SweepResult struct {
	// Results holds one SearchResult per requested system, in input
	// order, each byte-identical to what SearchReference returns.
	Results []*SearchResult
	// Errs[i] is the error a one-system search returns for system i
	// (e.g. "no candidate fits"), nil on success. Cancellation and
	// genuine failures abort the whole sweep through Sweep's own error
	// instead.
	Errs []error
	// Stats aggregates engine counters across all systems.
	Stats SweepStats
}

// Sweep grid-searches several systems in one streaming pass over a
// deduplicated work plan. See the engine comment above for how it stays
// byte-identical to per-system SearchReference calls while doing strictly
// less work. Searches do not trace: a sink (WithSink) is rejected with
// errs.ErrIncompatible — trace a single Evaluate instead.
//
//mepipe:deterministic
func Sweep(ctx context.Context, systems []System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace, opts ...Option) (*SweepResult, error) {
	o := buildOptions(opts)
	if o.sink != nil {
		return nil, fmt.Errorf("strategy: searches cannot trace (attach the sink to a single Evaluate): %w", errs.ErrIncompatible)
	}
	plans := make([]*sysPlan, len(systems))
	memo := newPlanMemo()
	var groups []*shapeGroup
	stats := SweepStats{}
	for si, sys := range systems {
		pl := planSystem(sys, m, cl, tr, sp, memo)
		plans[si] = pl
		stats.GridPoints += len(pl.pts)
		groups = append(groups, pl.groups(sp)...)
	}
	stats.Shapes = len(groups)

	// Parallel branch-and-bound pass over the shape groups.
	var counters sweepCounters
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		w := &sweepWorker{o: o, counters: &counters}
		for _, g := range groups {
			w.runGroup(ctx, g)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := &sweepWorker{o: o, counters: &counters}
				for {
					gi := int(cursor.Add(1)) - 1
					if gi >= len(groups) {
						return
					}
					w.runGroup(ctx, groups[gi])
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("strategy: sweep %w: %v", errs.ErrCancelled, err)
	}
	stats.Generated = int(counters.generated.Load())
	stats.Certified = int(counters.certified.Load())
	stats.Deduped = int(counters.deduped.Load())
	stats.Simulated = int(counters.simulated.Load())
	stats.GateSkipped = int(counters.gateSkipped.Load())

	// Deterministic sequential replay: reconstruct, per system, exactly
	// what a sequential search produces from the superset of evaluations
	// the parallel pass ran.
	res := &SweepResult{
		Results: make([]*SearchResult, len(systems)),
		Errs:    make([]error, len(systems)),
	}
	for si, pl := range plans {
		sr, err := pl.replay(sp)
		if err != nil {
			if errors.Is(err, errs.ErrIncompatible) && sr != nil {
				// The system's own "no candidate fits" outcome: recorded
				// per system, like a caller looping one-system searches
				// and collecting errors would see it.
				res.Results[si] = sr
				res.Errs[si] = err
				stats.Evaluated += sr.Evaluated
				stats.Pruned += sr.Pruned
				continue
			}
			return nil, err
		}
		res.Results[si] = sr
		stats.Evaluated += sr.Evaluated
		stats.Pruned += sr.Pruned
	}
	res.Stats = stats
	return res, nil
}

// sweepCounters aggregates engine statistics across workers.
type sweepCounters struct {
	generated, certified, deduped, simulated, gateSkipped atomic.Int64
}

// plannedPoint is one grid point after planPoint, the cheap phase before
// schedule generation, with its outcome when planning already settles it.
type plannedPoint struct {
	par config.Parallel
	n   int

	// skip marks points planPoint rejects as incompatible before a
	// schedule is built. Sequential search skips them silently, and so
	// does the replay.
	skip bool

	// lower bound for the pruning gate
	lb   float64
	lbOK bool

	// planning products for the evaluation phase (nil when skip or done)
	plan  *memplan.Plan
	costs *perf.Costs
	f     int // MEPipe's chosen SVPP variant
	dynW  bool

	// Settled outcome. done points (static OOM, no feasible F variant)
	// never reach a worker; the rest are filled by the parallel pass.
	done bool
	ev   *Eval
	err  error
}

// reject classifies a planning error the way sequential search does:
// expected shape rejections (wrapping errs.ErrIncompatible) are skipped,
// anything else is a genuine error the replay surfaces in grid order.
func (pt *plannedPoint) reject(err error) {
	if errors.Is(err, errs.ErrIncompatible) {
		pt.skip = true
		return
	}
	pt.err = err
	pt.done = true
}

// sysPlan is one system's planned grid, in grid order.
type sysPlan struct {
	sys   System
	gpus  int
	prune bool // SearchSpace.Prune: the gate only runs when set
	pts   []*plannedPoint
	gate  *prefixGate
}

// planMemo shares planning products across grid points — and systems —
// with equal inputs.
type planMemo struct {
	mesh  map[config.Parallel]cluster.Mesh
	plan  map[planKey]*memplan.Plan
	costs map[config.Parallel]*perf.Costs
}

// planKey identifies a memory plan: the strategy with its recomputation
// mode cleared (the plan reads only the partition shape, never the cost
// knob — see memplan.NewWithReserve) plus the allocator reserve.
type planKey struct {
	par     config.Parallel
	reserve int64
}

func newPlanMemo() *planMemo {
	return &planMemo{
		mesh:  make(map[config.Parallel]cluster.Mesh),
		plan:  make(map[planKey]*memplan.Plan),
		costs: make(map[config.Parallel]*perf.Costs),
	}
}

// planSystem plans every grid point of one system with planPoint. Points
// whose outcome is already settled here (skips, planning errors and
// pre-simulation OOMs) never reach the parallel pass.
func planSystem(sys System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace, memo *planMemo) *sysPlan {
	gpus := cl.GPUs()
	cands := enumerate(sys, gpus, tr, sp)
	pl := &sysPlan{sys: sys, gpus: gpus, prune: sp.Prune, pts: make([]*plannedPoint, len(cands))}
	for i, par := range cands {
		pt, err := planPoint(sys, m, cl, par, tr, memo)
		if err != nil {
			pt.reject(err)
		}
		// The bound is computed for every point, settled or not:
		// sequential search prune-checks a candidate before it can
		// discover the candidate is incompatible, so the replay needs the
		// bound even on points the planner rejects.
		pt.lb, pt.lbOK = lowerBound(sys, m, cl, par, tr)
		pl.pts[i] = pt
	}
	pl.gate = newPrefixGate(len(pl.pts))
	return pl
}

// planPoint is the per-point planner both EvaluateContext and the sweep
// run before schedule generation: compatibility, mesh, micro-batching, the
// memory plan, the static-OOM check, the cost model, and (for MEPipe) the
// F-variant choice. The returned point is done when planning already
// settles it as OOM; a planning error is returned for the caller to report
// or classify, alongside the partial point.
func planPoint(sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, memo *planMemo) (*plannedPoint, error) {
	pt := &plannedPoint{par: par}
	if err := compatible(sys, par); err != nil {
		return pt, err
	}
	mesh, ok := memo.mesh[par]
	if !ok {
		var err error
		mesh, err = cluster.NewMesh(cl, par)
		if err != nil {
			return pt, err
		}
		memo.mesh[par] = mesh
	}
	n, err := tr.MicroBatches(par)
	if err != nil {
		return pt, err
	}
	pt.n = n
	var reserve int64
	if sys == ZB || sys == ZBV {
		reserve = memplan.SplitReserve
	}
	pk := planKey{par: par, reserve: reserve}
	pk.par.Recompute = config.RecomputeNone
	plan, ok := memo.plan[pk]
	if !ok {
		plan, err = memplan.NewWithReserve(m, mesh, reserve)
		if err != nil {
			return pt, err
		}
		memo.plan[pk] = plan
	}
	pt.plan = plan
	pt.ev = &Eval{Sys: sys, Par: par, N: n, Budget: minInt64(plan.ActBudget)}
	if !plan.Feasible() {
		pt.ev = withOOM(*pt.ev, "static memory exceeds device capacity")
		pt.done = true
		return pt, nil
	}
	var costs *perf.Costs
	if sys == ZBV {
		// ZBV retargets the cost model at the wave placement in place
		// (perf.Costs.WithPlacement mutates the receiver), so it must own
		// a fresh model rather than a memoized one.
		costs, err = perf.New(m, mesh)
	} else {
		var hit bool
		costs, hit = memo.costs[par]
		if !hit {
			costs, err = perf.New(m, mesh)
			if err == nil {
				memo.costs[par] = costs
			}
		}
	}
	if err != nil {
		return pt, err
	}
	pt.costs = costs
	if sys == MEPipe {
		fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
		grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
		f, err := memplan.ChooseF(par, fam, grad, plan.ActBudget[0])
		if err != nil {
			// No SVPP variant fits the activation budget: the same
			// memory failure buildSchedule reports, settled before
			// generation.
			pt.ev = withOOM(*pt.ev, fmt.Sprintf("%v: %v", err, errs.ErrOOM))
			pt.done = true
			return pt, nil
		}
		pt.f = f
		pt.dynW = true
	}
	return pt, nil
}

// withOOM returns a copy of ev marked out of memory for the given reason.
func withOOM(ev Eval, why string) *Eval {
	ev.OOM, ev.OOMWhy = true, why
	return &ev
}

// fold completes a planned evaluation with its simulation result.
func fold(ev Eval, res *sim.Result, f int) *Eval {
	ev.Result = res
	ev.IterTime = res.IterTime
	ev.Bubble = res.BubbleRatio
	ev.PeakAct = res.PeakAct
	ev.F = f
	if res.OOM {
		return withOOM(ev, fmt.Sprintf("activations exceed budget on stage %d", res.OOMStage))
	}
	return &ev
}

// shapeKey identifies a schedule shape: every grid point with the same key
// generates a structurally identical op universe, and byte-identical
// tables whenever the cost knobs do not reorder the generator's choices.
type shapeKey struct {
	p, v, s, n, f int
	dynW          bool
}

func (pt *plannedPoint) key() shapeKey {
	return shapeKey{p: pt.par.PP, v: pt.par.VP, s: pt.par.SPP, n: pt.n, f: pt.f, dynW: pt.dynW}
}

// shapeGroup is one unit of parallel work: the open grid points of one
// system sharing a schedule shape, in grid order.
type shapeGroup struct {
	pl  *sysPlan
	idx []int
}

// groups partitions the system's open points into shape groups, preserving
// grid order within each group and first-appearance order across groups.
func (pl *sysPlan) groups(sp SearchSpace) []*shapeGroup {
	var out []*shapeGroup
	at := make(map[shapeKey]int)
	for i, pt := range pl.pts {
		if pt.skip || pt.done {
			continue
		}
		k := pt.key()
		gi, ok := at[k]
		if !ok {
			gi = len(out)
			at[k] = gi
			out = append(out, &shapeGroup{pl: pl})
		}
		out[gi].idx = append(out[gi].idx, i)
	}
	return out
}

// sweepWorker owns one reusable simulation session; the engine runs one
// worker per core and hands each a stream of shape groups.
type sweepWorker struct {
	o        options
	se       sim.Session
	counters *sweepCounters
}

// runGroup evaluates one shape group: the first live member becomes the
// representative (generated, certified, bound), and each later member is
// generated, byte-compared, and — when identical — re-costed through the
// bound session instead of re-certified and re-bound.
func (w *sweepWorker) runGroup(ctx context.Context, g *shapeGroup) {
	pl := g.pl
	var rep *sched.Schedule
	bound := false
	for _, i := range g.idx {
		if ctx.Err() != nil {
			return // the sweep reports cancellation after the drain
		}
		pt := pl.pts[i]
		if pl.prune && pt.lbOK {
			// The branch-and-bound gate: skip the point if some
			// completed earlier point already beats its lower bound.
			// Every skip here is provably also a sequential-replay
			// prune (see prefixGate), so skipped points are never
			// needed again.
			if b := pl.gate.bound(i); pt.lb > b {
				w.counters.gateSkipped.Add(1)
				continue
			}
		}
		s, dynamicW, f, err := buildSchedule(pl.sys, pt.par, pt.n, pt.costs, pt.plan)
		w.counters.generated.Add(1)
		if err != nil {
			pt.ev = withOOM(*pt.ev, err.Error())
			pt.done = true
			continue
		}
		var simCosts sim.Costs = pt.costs
		if w.o.costWrap != nil {
			simCosts = w.o.costWrap(s, pt.costs)
		}
		opt := sim.Options{
			Sched: s, Costs: simCosts,
			ActBudget:   pt.plan.ActBudget,
			DynamicW:    dynamicW,
			TailTime:    pt.costs.TailTime,
			AssumeValid: true,
		}
		if bound && rep != nil && sameOps(s, rep) {
			// Byte-identical to the certified representative:
			// certification of equal bytes is the same pure function
			// application, so skip it and re-cost the bound session.
			err = w.se.Recost(opt)
			w.counters.deduped.Add(1)
		} else {
			if _, cerr := verify.Certify(s, verify.Options{}); cerr != nil {
				pt.err = fmt.Errorf("strategy: %s schedule rejected: %w", pl.sys, cerr)
				pt.done = true
				continue
			}
			w.counters.certified.Add(1)
			err = w.se.Bind(opt)
			bound = err == nil
			rep = s
		}
		if err == nil {
			var r *sim.Result
			r, err = w.se.Eval(s)
			w.counters.simulated.Add(1)
			if err == nil {
				pt.ev = fold(*pt.ev, r.Clone(), f)
				pt.done = true
				if !pt.ev.OOM {
					pl.gate.complete(i, pt.ev.IterTime)
				}
				continue
			}
		}
		pt.err = fmt.Errorf("strategy: simulating %s %v: %w", pl.sys, pt.par, err)
		pt.done = true
	}
}

// replay reconstructs the exact sequential search result from the
// parallel pass's evaluations: it walks the grid in order, re-deriving the
// best-so-far pruning decisions, and consumes the parallel results only
// for points sequential search would actually have evaluated.
func (pl *sysPlan) replay(sp SearchSpace) (*SearchResult, error) {
	res := &SearchResult{Sys: pl.sys}
	bestTime := 0.0
	for _, pt := range pl.pts {
		// Mirror the sequential loop's order exactly: the prune check runs
		// before anything else, so even a point the planner skipped or
		// settled counts as pruned when its bound clears the best.
		if sp.Prune && bestTime > 0 && pt.lbOK && pt.lb > bestTime {
			res.Pruned++
			continue
		}
		if pt.skip {
			continue
		}
		if pt.err != nil {
			if errors.Is(pt.err, errs.ErrIncompatible) {
				continue
			}
			return nil, pt.err
		}
		if !pt.done {
			// Unreachable when the gate's prefix argument holds: a point
			// the replay needs was evaluated by the parallel pass.
			return nil, fmt.Errorf("strategy: sweep dropped %s %v (internal branch-and-bound error): %w",
				pl.sys, pt.par, errs.ErrUncertified)
		}
		res.Evaluated++
		res.Candidates = append(res.Candidates, pt.ev)
		if !pt.ev.OOM && (bestTime == 0 || pt.ev.IterTime < bestTime) {
			bestTime = pt.ev.IterTime
		}
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return less(res.Candidates[i], res.Candidates[j])
	})
	if len(res.Candidates) == 0 {
		return res, fmt.Errorf("strategy: no candidate for %s fits %d GPUs: %w", pl.sys, pl.gpus, errs.ErrIncompatible)
	}
	return res, nil
}

// sameOps reports whether two schedules of the same shape carry identical
// op tables.
func sameOps(a, b *sched.Schedule) bool {
	if len(a.Stages) != len(b.Stages) {
		return false
	}
	for k := range a.Stages {
		x, y := a.Stages[k], b.Stages[k]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// prefixGate is the monotonically tightening bound the branch-and-bound
// workers share. slot[i] holds the minimum simulated iteration time over
// the COMPLETED non-OOM points j < i; completing point j tightens every
// later slot with a CAS-min.
//
// Soundness (gate skips ⊆ sequential prunes): suppose the gate skips i
// because lb(i) > T_j for a completed non-OOM j < i. If sequential search
// evaluated j, then its best-so-far at i is ≤ T_j < lb(i), so it prunes i
// too. If sequential search PRUNED j, then lb(j) exceeded its best-so-far
// at j, and T_j ≥ lb(j) > best(j) ≥ best(i), so lb(i) > T_j > best(i) and
// sequential search again prunes i (a non-OOM evaluated predecessor exists
// in both cases — the first non-OOM point is never pruned). Hence the
// replay never needs a point the gate skipped.
type prefixGate struct {
	slots []atomic.Uint64
}

func newPrefixGate(n int) *prefixGate {
	g := &prefixGate{slots: make([]atomic.Uint64, n)}
	inf := math.Float64bits(math.Inf(1))
	for i := range g.slots {
		g.slots[i].Store(inf)
	}
	return g
}

// bound returns the tightest completed-prefix time for point i (+Inf when
// nothing before i has completed).
func (g *prefixGate) bound(i int) float64 {
	return math.Float64frombits(g.slots[i].Load())
}

// complete records point i's simulated time, tightening every later slot.
// Positive float ordering matches unsigned bit ordering, so CAS-min on the
// raw bits is exact.
func (g *prefixGate) complete(i int, t float64) {
	bits := math.Float64bits(t)
	for k := i + 1; k < len(g.slots); k++ {
		for {
			cur := g.slots[k].Load()
			if bits >= cur {
				break
			}
			if g.slots[k].CompareAndSwap(cur, bits) {
				break
			}
		}
	}
}
