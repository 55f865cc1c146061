package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	v1 "mepipe/api/v1"
	"mepipe/internal/opt"
	"mepipe/internal/serve"
	"mepipe/internal/strategy"
)

// plan-cold: the response cache is off, so every request re-plans and the
// planning layers (strategy, sched, verify, sim, opt) do nearly all the
// work. A pass sends each of eight documents once, in a seeded order. The
// documents cost roughly the same (tens of milliseconds each), so the
// percentiles do not sit on a boundary between cheap and dear classes.

// planDoc is one plan-cold request document.
type planDoc struct {
	class string // sweep, search or optimize
	path  string
	body  []byte
	want  digest
}

// planPoint is one (model, servers, global batch) grid-search point.
type planPoint struct {
	model   string
	servers int
	gbs     int
}

// planPoints are the §7.3 grid-search points. On one core each sweep or
// search takes 40–65 ms, as do the two optimizations; 13b on four servers
// at GBS 64 takes twice that, which would put the 90th percentile on the
// boundary between it and the rest. Points that find nothing within a
// fraction of a millisecond (13b on one server, 34b on one or two) are
// left out.
var planPoints = []planPoint{{"7b", 1, 16}, {"13b", 2, 32}, {"13b", 4, 32}}

// planColdDocs returns the fixed document cycle: a pruned all-system sweep
// and a pruned MEPipe search at each point, and two MEPipe optimizations on
// 7b × one server, pp4 dp2.
func planColdDocs() ([]*planDoc, error) {
	var docs []*planDoc
	add := func(class, path string, req any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		docs = append(docs, &planDoc{class: class, path: path, body: body})
		return nil
	}
	for _, p := range planPoints {
		m := v1.ModelSpec{Preset: p.model}
		cl := v1.ClusterSpec{Preset: "rtx4090", Servers: p.servers}
		tr := v1.TrainingSpec{GlobalBatch: p.gbs}
		if err := add("sweep", "/v1/sweep", v1.SweepRequest{Model: m, Cluster: cl, Training: tr, Space: &v1.SpaceSpec{Prune: true}}); err != nil {
			return nil, err
		}
		if err := add("search", "/v1/search", v1.PlanRequest{System: "mepipe", Model: m, Cluster: cl, Training: tr, Space: &v1.SpaceSpec{Prune: true}}); err != nil {
			return nil, err
		}
	}
	for _, o := range []struct{ gbs, iters int }{{8, 20}, {4, 50}} {
		req := v1.OptimizeRequest{
			PlanRequest: v1.PlanRequest{
				System: "mepipe", Model: v1.ModelSpec{Preset: "7b"},
				Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
				Training: v1.TrainingSpec{GlobalBatch: o.gbs},
				Parallel: &v1.ParallelSpec{PP: 4, DP: 2},
			},
			Opt: &v1.OptSpec{Iters: o.iters},
		}
		if err := add("optimize", "/v1/optimize", req); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

type planCold struct {
	h    http.Handler
	docs []*planDoc
	rng  *rand.Rand
}

func setupPlanCold(seed int64) (runner, error) {
	docs, err := planColdDocs()
	if err != nil {
		return nil, err
	}
	h := serve.New(serve.Options{CacheSize: -1}).Handler()
	for _, d := range docs {
		r := call(h, http.MethodPost, d.path, d.body)
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", d.path, d.body, r.status, r.body)
		}
		d.want = digestOf(r.body)
	}
	return &planCold{h: h, docs: docs, rng: rand.New(rand.NewSource(seed))}, nil
}

// passes runs whole passes until the deadline, calling each after every
// request. Whole passes keep every class equally represented.
func (p *planCold) passes(deadline time.Time, each func(d *planDoc)) *samples {
	s := newSamples()
	t0 := now()
	for {
		for _, i := range p.rng.Perm(len(p.docs)) {
			d := p.docs[i]
			r := call(p.h, http.MethodPost, d.path, d.body)
			s.add(d.class, r.took, r.check(d.want))
			if each != nil {
				each(d)
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	s.elapsed = t0.since()
	return s
}

func (p *planCold) run(deadline time.Time) *samples { return p.passes(deadline, nil) }

func (p *planCold) extra(s *samples) []metric {
	var ms []metric
	for _, c := range []string{"search", "sweep", "optimize"} {
		ms = keep(ms, metric{c + "_p50_norm_ms", "ms", s.classPercentile(c, 0.5)})
	}
	return ms
}

// traced replays each document layer by layer after its timed request.
func (p *planCold) traced(deadline time.Time) (*samples, []metric, error) {
	lt := &planLayers{}
	replayFailed := 0
	s := p.passes(deadline, func(d *planDoc) {
		if err := lt.replay(d); err != nil {
			fmt.Printf("plan-cold    replay %s: %v\n", d.path, err)
			replayFailed++
		}
	})
	s.failed += replayFailed
	return s, lt.metrics(s.ops / len(p.docs)), nil
}

// planLayers accumulates the traced replay's per-layer counts and times.
type planLayers struct {
	points layerTimes

	sweepTimes, searchTimes []float64 // seconds per call
	grid, shapes, deduped   int
	pruned                  int

	optTime                        float64
	proposed, infeasible, accepted int
}

// replay decodes and compiles the document, calls the planner entry point
// the handler would call, and replays every candidate the planner
// evaluated through the inner layers.
func (lt *planLayers) replay(d *planDoc) error {
	ctx := context.Background()
	switch d.class {
	case "sweep":
		req, err := v1.DecodeSweepRequest(bytes.NewReader(d.body))
		if err != nil {
			return err
		}
		plan, err := req.Compile()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := strategy.Sweep(ctx, plan.Systems, plan.Model, plan.Cluster, plan.Training, plan.Space)
		if err != nil {
			return err
		}
		lt.sweepTimes = append(lt.sweepTimes, time.Since(t0).Seconds())
		lt.grid += res.Stats.GridPoints
		lt.shapes += res.Stats.Shapes
		lt.deduped += res.Stats.Deduped
		lt.pruned += res.Stats.Pruned
		for _, r := range res.Results {
			for _, ev := range r.Candidates {
				if err := lt.points.replayPoint(ev, plan.Model, plan.Cluster); err != nil {
					return err
				}
			}
		}
	case "search":
		req, err := v1.DecodePlanRequest(bytes.NewReader(d.body))
		if err != nil {
			return err
		}
		plan, err := req.Compile()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := strategy.SearchContext(ctx, plan.System, plan.Model, plan.Cluster, plan.Training, plan.Space)
		if err != nil {
			return err
		}
		lt.searchTimes = append(lt.searchTimes, time.Since(t0).Seconds())
		for _, ev := range res.Candidates {
			if err := lt.points.replayPoint(ev, plan.Model, plan.Cluster); err != nil {
				return err
			}
		}
	case "optimize":
		req, err := v1.DecodeOptimizeRequest(bytes.NewReader(d.body))
		if err != nil {
			return err
		}
		norm, err := req.Normalize()
		if err != nil {
			return err
		}
		plan, err := norm.PlanRequest.Compile()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := strategy.OptimizeContext(ctx, plan.System, plan.Model, plan.Cluster, *plan.Parallel, plan.Training,
			opt.Options{Seed: norm.Opt.Seed, Iters: norm.Opt.Iters, Proposals: norm.Opt.Proposals})
		if err != nil {
			return err
		}
		lt.optTime += time.Since(t0).Seconds()
		lt.proposed += res.Opt.Proposed
		lt.infeasible += res.Opt.Infeasible
		lt.accepted += res.Opt.Accepted
	}
	return nil
}

// metrics reports the replay's layers; counts are per pass.
func (lt *planLayers) metrics(passes int) []metric {
	per := func(x float64) float64 { return ratio(x, float64(passes)) }
	ms := []metric{
		{"strategy.sweep_ms", "ms", 1000 * median(lt.sweepTimes)},
		{"strategy.search_ms", "ms", 1000 * median(lt.searchTimes)},
		{"strategy.grid_points", "count", per(float64(lt.grid))},
		{"strategy.shapes", "count", per(float64(lt.shapes))},
		{"strategy.dedup_ratio", "ratio", ratio(float64(lt.deduped), float64(lt.grid))},
		{"strategy.prune_rate", "ratio", ratio(float64(lt.pruned), float64(lt.grid))},
		{"opt.proposals_per_s", "1/s", ratio(float64(lt.proposed), lt.optTime)},
		{"opt.infeasible_ratio", "ratio", ratio(float64(lt.infeasible), float64(lt.proposed))},
		{"opt.accept_ratio", "ratio", ratio(float64(lt.accepted), float64(lt.proposed))},
	}
	return append(ms, lt.points.metrics(passes)...)
}
