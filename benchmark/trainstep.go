package main

import (
	"fmt"
	"math"
	"time"

	"mepipe/internal/data"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/pipeline"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// train-step: each operation is one real pipelined MEPipe iteration on a
// small decoder (schedule, pipeline.New + Run across four stage
// goroutines, SGD step). Only the tensor, nn and pipeline layers work; no
// planner runs.

var trainCfg = nn.Config{Hidden: 64, Heads: 4, FFN: 128, Vocab: 64, Layers: 8, SeqLen: 32}

const (
	trainStages = 4
	trainSlices = 4
	trainMicros = 4
	// trainCycle is the number of steps trained from the seed's initial
	// weights before the model is rebuilt; the timed phase repeats the
	// cycle, so every step's loss is known from set-up.
	trainCycle = 4
	trainLR    = 0.05
	// maxGradDiff bounds pipelined against sequential gradients.
	maxGradDiff = 1e-4
)

type trainStep struct {
	seed    int64
	s       *sched.Schedule
	batches [][][]int
	losses  []float64
}

func setupTrainStep(seed int64) (runner, error) {
	s, err := sched.MEPipe(trainStages, 1, trainSlices, trainMicros, 0, nn.WeightGradGEMMs, nil)
	if err != nil {
		return nil, err
	}
	stream, err := data.NewStream(trainCfg.Vocab, trainCfg.SeqLen, seed)
	if err != nil {
		return nil, err
	}
	ts := &trainStep{seed: seed, s: s}
	for i := 0; i < trainCycle; i++ {
		ts.batches = append(ts.batches, stream.Batch(trainMicros))
	}
	if err := ts.checkGradients(); err != nil {
		return nil, err
	}
	m, err := nn.NewModel(trainCfg, seed)
	if err != nil {
		return nil, err
	}
	for _, b := range ts.batches {
		loss, err := ts.step(m, b, nil)
		if err != nil {
			return nil, err
		}
		ts.losses = append(ts.losses, loss)
	}
	return ts, nil
}

// checkGradients runs the first batch pipelined and sequentially from
// identical weights and compares every gradient.
func (ts *trainStep) checkGradients() error {
	piped, err := nn.NewModel(trainCfg, ts.seed)
	if err != nil {
		return err
	}
	seq, err := nn.NewModel(trainCfg, ts.seed)
	if err != nil {
		return err
	}
	r, err := pipeline.New(piped, ts.s, ts.batches[0])
	if err != nil {
		return err
	}
	if _, err := r.Run(); err != nil {
		return err
	}
	if _, err := seq.TrainSequential(ts.batches[0], trainSlices); err != nil {
		return err
	}
	pg := piped.Grads()
	for name, g := range seq.Grads() {
		if d := tensor.MaxAbsDiff(g, pg[name]); d > maxGradDiff {
			return fmt.Errorf("gradient %s: pipelined and sequential differ by %g", name, d)
		}
	}
	return nil
}

// step is one training iteration: pipelined forward and backward, then
// an SGD step.
func (ts *trainStep) step(m *nn.Model, batch [][]int, sink obs.Sink) (float64, error) {
	m.ZeroGrads()
	r, err := pipeline.New(m, ts.s, batch)
	if err != nil {
		return 0, err
	}
	if sink != nil {
		r.WithTrace(sink)
	}
	loss, err := r.Run()
	if err != nil {
		return 0, err
	}
	m.SGDStep(trainLR)
	return loss, nil
}

// loop trains whole cycles until the deadline. Every step's loss must
// equal the loss recorded at set-up bit for bit. sink, when set, supplies
// each step's trace sink; each, when set, runs after every step with its
// batch.
func (ts *trainStep) loop(deadline time.Time, sink func() obs.Sink, each func(batch [][]int)) *samples {
	s := newSamples()
	t0 := now()
	for time.Now().Before(deadline) {
		m, err := nn.NewModel(trainCfg, ts.seed)
		if err != nil {
			s.add("", cost{}, false)
			break
		}
		for i, b := range ts.batches {
			var sk obs.Sink
			if sink != nil {
				sk = sink()
			}
			st := now()
			loss, err := ts.step(m, b, sk)
			d := st.since()
			s.add("", d, err == nil && math.Float64bits(loss) == math.Float64bits(ts.losses[i]))
			if each != nil {
				each(b)
			}
		}
	}
	s.elapsed = t0.since()
	return s
}

func (ts *trainStep) run(deadline time.Time) *samples { return ts.loop(deadline, nil, nil) }

func (ts *trainStep) extra(*samples) []metric { return nil }

// traced records each pipelined step's wall spans through the runner's
// trace sink, and after it times the single-worker nn.Trainer on the same
// batch as the sequential baseline and the tensor layer's meter.
func (ts *trainStep) traced(deadline time.Time) (*samples, []metric, error) {
	seqModel, err := nn.NewModel(trainCfg, ts.seed)
	if err != nil {
		return nil, nil, err
	}
	tr := nn.NewTrainer(seqModel)
	defer tr.Close()

	var rec *obs.Recorder
	var stepMS, idle, seqMS []float64
	var flops, gets, hits int64
	var seqTime time.Duration
	failed := 0
	s := ts.loop(deadline, func() obs.Sink {
		rec = obs.NewRecorder()
		return rec
	}, func(batch [][]int) {
		span, share := pipelineSpans(rec.Trace())
		stepMS = append(stepMS, span)
		idle = append(idle, share)

		seqModel.ZeroGrads()
		before := tr.Stats()
		t0 := time.Now()
		_, err := tr.Step(batch, trainSlices)
		d := time.Since(t0)
		if err != nil {
			failed++
			return
		}
		after := tr.Stats()
		seqTime += d
		seqMS = append(seqMS, msOf(d))
		flops += after.FLOPs - before.FLOPs
		gets += after.Gets - before.Gets
		hits += after.Hits - before.Hits
	})
	s.failed += failed
	steps := float64(len(seqMS))
	var idleSum float64
	for _, x := range idle {
		idleSum += x
	}
	return s, []metric{
		{"tensor.flops_per_step", "flop", ratio(float64(flops), steps)},
		{"tensor.gemm_gflops", "GFLOP/s", ratio(float64(flops), seqTime.Seconds()) / 1e9},
		{"tensor.scratch_hit_ratio", "ratio", ratio(float64(hits), float64(gets))},
		{"nn.seq_step_ms", "ms", median(seqMS)},
		{"pipeline.step_ms", "ms", median(stepMS)},
		{"pipeline.idle_share", "ratio", ratio(idleSum, float64(len(idle)))},
	}, nil
}

// pipelineSpans returns a traced step's span in milliseconds (first op
// start to last op end) and the share of stage time not spent computing:
// op spans include the time an op blocked on its input, which the runtime
// also reports as stall events.
func pipelineSpans(t *obs.Trace) (spanMS, idleShare float64) {
	first, last := math.Inf(1), math.Inf(-1)
	var busy float64
	for _, e := range t.Events {
		switch e.Kind {
		case obs.EvOp:
			first = math.Min(first, e.Start)
			last = math.Max(last, e.End)
			busy += e.Dur()
		case obs.EvStall:
			busy -= e.Dur()
		}
	}
	span := last - first
	if t.Stages == 0 || span <= 0 {
		return 0, 0
	}
	return 1000 * span, 1 - busy/(float64(t.Stages)*span)
}
