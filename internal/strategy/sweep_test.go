package strategy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
)

// TestSweepMatchesSequential is the engine's golden gate: for every preset
// system, with and without pruning, at 8/16/32 GPUs, both the multi-system
// Sweep and the one-system SearchContext must return bit-identical
// candidates — contents AND order — to the frozen sequential
// SearchReference, along with identical Evaluated/Pruned counters and
// per-system errors. SearchReference shares none of the engine's planning
// memo, dense indices or sessions, so agreement is evidence about the
// engine; it also keeps the benchmark baseline honest, since a speedup
// measured against it is one against the same search.
func TestSweepMatchesSequential(t *testing.T) {
	m := config.Llama13B()
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	for _, servers := range []int{1, 2, 4} {
		cl := cluster.RTX4090Cluster(servers)
		for _, prune := range []bool{false, true} {
			t.Run(fmt.Sprintf("gpus=%d/prune=%v", cl.GPUs(), prune), func(t *testing.T) {
				sp := DefaultSpace()
				sp.Prune = prune
				sw, err := Sweep(context.Background(), Systems(), m, cl, tr, sp)
				if err != nil {
					t.Fatalf("Sweep: %v", err)
				}
				if got, want := len(sw.Results), len(Systems()); got != want {
					t.Fatalf("Sweep returned %d results, want %d", got, want)
				}
				for si, sys := range Systems() {
					ref, refErr := SearchReference(context.Background(), sys, m, cl, tr, sp)
					one, oneErr := SearchContext(context.Background(), sys, m, cl, tr, sp)
					sameSearch(t, "sweep "+sys.String(), sw.Results[si], sw.Errs[si], ref, refErr)
					sameSearch(t, "search "+sys.String(), one, oneErr, ref, refErr)
				}
				if sw.Stats.GridPoints == 0 {
					t.Errorf("implausible stats: %+v", sw.Stats)
				}
				// Grids where any system found a feasible candidate must
				// have certified at least one schedule; all-OOM grids (8
				// GPUs) legitimately settle every point during planning.
				var found bool
				for _, r := range sw.Results {
					found = found || r.Found()
				}
				if found && sw.Stats.Certified == 0 {
					t.Errorf("found candidates without certifying: %+v", sw.Stats)
				}
				if prune {
					var pruned int
					for _, r := range sw.Results {
						pruned += r.Pruned
					}
					if sw.Stats.Pruned != pruned {
						t.Errorf("Stats.Pruned = %d, want %d", sw.Stats.Pruned, pruned)
					}
				}
			})
		}
	}
}

// sameSearch fails the test unless got/gotErr is byte-identical to the
// reference search result want/wantErr.
func sameSearch(t *testing.T, what string, got *SearchResult, gotErr error, want *SearchResult, wantErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error mismatch: got %v, reference %v", what, gotErr, wantErr)
	}
	if got == nil {
		t.Fatalf("%s: no result", what)
	}
	if got.Evaluated != want.Evaluated || got.Pruned != want.Pruned {
		t.Errorf("%s: counters (evaluated %d, pruned %d), want (%d, %d)",
			what, got.Evaluated, got.Pruned, want.Evaluated, want.Pruned)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if !reflect.DeepEqual(got.Candidates[i], want.Candidates[i]) {
			t.Fatalf("%s: candidate %d differs:\ngot:       %+v\nreference: %+v",
				what, i, got.Candidates[i], want.Candidates[i])
		}
	}
}

// TestSweepDedup pins the structural win: on the default 32-GPU grid the
// recompute variants of DAPPLE and VPP must byte-share their schedule
// shapes, so the engine certifies strictly fewer schedules than it has
// grid points.
func TestSweepDedup(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(4)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	sw, err := Sweep(context.Background(), Systems(), m, cl, tr, DefaultSpace())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	st := sw.Stats
	if st.Deduped == 0 {
		t.Fatalf("no deduplication on the default grid: %+v", st)
	}
	if st.Certified >= st.Generated {
		t.Errorf("certifications (%d) not reduced below generations (%d)", st.Certified, st.Generated)
	}
	if got := st.DedupRatio(); got <= 0 || got >= 1 {
		t.Errorf("dedup ratio %v out of (0, 1)", got)
	}
}

// TestSweepCancelled: cancelling mid-sweep drains every worker goroutine
// and reports an error wrapping errs.ErrCancelled.
func TestSweepCancelled(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(2)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}

	// Cancelled up front.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, Systems(), m, cl, tr, DefaultSpace()); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("pre-cancelled Sweep error = %v, want ErrCancelled", err)
	}

	// Cancelled midway: cancel shortly after the sweep starts, from a
	// timer rather than a hook, so workers observe it between points.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	res, err := Sweep(ctx, Systems(), m, cl, tr, DefaultSpace())
	if err == nil {
		// The sweep may legitimately win the race and finish first;
		// then the result must be complete.
		if res == nil || len(res.Results) != len(Systems()) {
			t.Fatalf("raced Sweep returned incomplete result %+v", res)
		}
	} else if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("mid-sweep cancel error = %v, want ErrCancelled", err)
	}
	cancel()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d running, baseline %d", n, before)
	}
}
