package main

import (
	"errors"
	"fmt"
	"time"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/memplan"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/strategy"
	"mepipe/internal/verify"
)

// layerTimes times one planning point's trip through the inner layers, as
// the strategy layer makes it: plan objects (mesh, memory plan, cost
// model), schedule generation, certification, simulator bind and eval.
type layerTimes struct {
	memo, generate, certify, bind, eval time.Duration
	generates, certifies, evals         int
	sess                                *sim.Session
}

// replayPoint re-evaluates one candidate the planner evaluated, timing each
// layer, and checks that the replay reproduces the planner's iteration
// time bit for bit.
func (lt *layerTimes) replayPoint(ev *strategy.Eval, m config.Model, cl cluster.Cluster) error {
	t0 := time.Now()
	mesh, err := cluster.NewMesh(cl, ev.Par)
	if err != nil {
		return err
	}
	var reserve int64
	if ev.Sys == strategy.ZB || ev.Sys == strategy.ZBV {
		reserve = memplan.SplitReserve
	}
	plan, err := memplan.NewWithReserve(m, mesh, reserve)
	if err != nil {
		return err
	}
	if !plan.Feasible() {
		lt.memo += time.Since(t0)
		return nil
	}
	costs, err := perf.New(m, mesh)
	lt.memo += time.Since(t0)
	if err != nil {
		return err
	}

	opts, dynamicW, err := genOptions(ev.Sys, ev.Par, ev.N, costs, plan)
	if errors.Is(err, errNoVariant) {
		return nil
	}
	if err != nil {
		return err
	}
	t0 = time.Now()
	s, err := sched.Generate(opts)
	lt.generate += time.Since(t0)
	lt.generates++
	if err != nil {
		return nil // a generation failure is the planner's OOM answer
	}

	t0 = time.Now()
	_, err = verify.Certify(s, verify.Options{})
	lt.certify += time.Since(t0)
	lt.certifies++
	if err != nil {
		return fmt.Errorf("%v %v: %w", ev.Sys, ev.Par, err)
	}

	so := sim.Options{
		Sched: s, Costs: costs, ActBudget: plan.ActBudget,
		DynamicW: dynamicW, TailTime: costs.TailTime, AssumeValid: true,
	}
	t0 = time.Now()
	if lt.sess == nil {
		lt.sess, err = sim.NewSession(so)
	} else {
		err = lt.sess.Bind(so)
	}
	lt.bind += time.Since(t0)
	if err != nil {
		return fmt.Errorf("%v %v: bind: %w", ev.Sys, ev.Par, err)
	}
	t0 = time.Now()
	res, err := lt.sess.Eval(s)
	lt.eval += time.Since(t0)
	lt.evals++
	if err != nil {
		return fmt.Errorf("%v %v: eval: %w", ev.Sys, ev.Par, err)
	}
	if !ev.OOM && res.IterTime != ev.IterTime {
		return fmt.Errorf("%v %v: replayed iteration time %v, planner said %v", ev.Sys, ev.Par, res.IterTime, ev.IterTime)
	}
	return nil
}

// errNoVariant marks a MEPipe point for which no memory variant fits: the
// planner reports it as out of memory without generating a schedule.
var errNoVariant = errors.New("no SVPP variant fits the activation budget")

// genOptions maps a system to the generator options its preset builder
// produces, the way the strategy layer does.
func genOptions(sys strategy.System, par config.Parallel, n int, costs *perf.Costs, plan *memplan.Plan) (opts sched.GenOptions, dynamicW bool, err error) {
	p := par.PP
	switch sys {
	case strategy.DAPPLE:
		return sched.DAPPLEOpts(p, n, costs), false, nil
	case strategy.VPP:
		return sched.VPPOpts(p, par.VP, n, costs), false, nil
	case strategy.ZB:
		return sched.ZB1POpts(p, n, costs), false, nil
	case strategy.ZBV:
		costs.WithPlacement(sched.Wave{P: p})
		return sched.ZBVOpts(p, n, costs), false, nil
	case strategy.MEPipe:
		fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
		grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
		f, err := memplan.ChooseF(par, fam, grad, plan.ActBudget[0])
		if err != nil {
			return sched.GenOptions{}, false, errNoVariant
		}
		return sched.SVPPOptions{
			P: p, V: par.VP, S: par.SPP, N: n, F: f,
			Reschedule: true, Split: true,
			FineGrainedW: costs.WPieces(), Est: costs,
		}.GenOpts(), true, nil
	}
	return sched.GenOptions{}, false, fmt.Errorf("no replay for system %v", sys)
}

// metrics reports the inner layers; times and counts are per pass, except
// sim.eval_us, which is per evaluation.
func (lt *layerTimes) metrics(passes int) []metric {
	per := func(x float64) float64 { return ratio(x, float64(passes)) }
	return []metric{
		{"plan.memo_ms", "ms", per(msOf(lt.memo))},
		{"sched.generate_ms", "ms", per(msOf(lt.generate))},
		{"sched.generate_calls", "count", per(float64(lt.generates))},
		{"verify.certify_ms", "ms", per(msOf(lt.certify))},
		{"verify.certify_calls", "count", per(float64(lt.certifies))},
		{"sim.bind_ms", "ms", per(msOf(lt.bind))},
		{"sim.eval_us", "us", ratio(msOf(lt.eval)*1000, float64(lt.evals))},
		{"sim.evals", "count", per(float64(lt.evals))},
	}
}
