package sim

import (
	"context"
	"errors"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

func TestRunContextCancelled(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Options{Sched: s, Costs: Unit()}); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("RunContext = %v, want ErrCancelled", err)
	}
}

// cancelSink cancels its run's context once it has seen after events.
type cancelSink struct {
	n, after int
	cancel   context.CancelFunc
}

func (c *cancelSink) Emit(obs.Event) {
	c.n++
	if c.n == c.after {
		c.cancel()
	}
}

// TestRunContextCancelledTraced: a traced run checks its context every 256
// executed ops, so a sink that cancels mid-run stops it with ErrCancelled
// in both static and dynamic mode.
func TestRunContextCancelledTraced(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 8, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dynamicW := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{after: 10, cancel: cancel}
		_, err := RunContext(ctx, Options{Sched: s, Costs: Unit(), DynamicW: dynamicW, Trace: sink})
		cancel()
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("dynamicW=%v: traced RunContext = %v, want ErrCancelled", dynamicW, err)
		}
		if sink.n < sink.after {
			t.Fatalf("dynamicW=%v: run stopped after %d events, before the sink cancelled", dynamicW, sink.n)
		}
	}
}

func TestRunWrapsIncompatible(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 2, V: 1, S: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Sched: s, Costs: Unit(), DynamicW: true}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("DynamicW without split backward: %v, want ErrIncompatible", err)
	}
	if _, err := Run(Options{Sched: s, Costs: Unit(), ActBudget: []int64{1}}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("short ActBudget: %v, want ErrIncompatible", err)
	}
}

// TestTraceMatchesResult: the trace's derived quantities agree with the
// simulator's own accounting, and Result.Trace carries the exact values.
func TestTraceMatchesResult(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := Run(Options{Sched: s, Costs: Unit(), Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	live := rec.Trace()
	conv := res.Trace()
	if live.Stages != conv.Stages {
		t.Errorf("stages: recorded %d, converted %d", live.Stages, conv.Stages)
	}
	if conv.Makespan != res.IterTime || conv.Bubble != res.BubbleRatio {
		t.Errorf("converted trace (%g, %g) != result (%g, %g)",
			conv.Makespan, conv.Bubble, res.IterTime, res.BubbleRatio)
	}
	for k := 0; k < live.Stages; k++ {
		lo, co := live.OpSpans(k), conv.OpSpans(k)
		if len(lo) != len(co) {
			t.Fatalf("stage %d: %d recorded op spans, %d converted", k, len(lo), len(co))
		}
		for i := range lo {
			if lo[i].Op != co[i].Op || lo[i].Start != co[i].Start || lo[i].End != co[i].End {
				t.Errorf("stage %d span %d: recorded %+v, converted %+v", k, i, lo[i], co[i])
			}
		}
	}
}
