package strategy_test

import (
	"context"
	"errors"
	"testing"

	"mepipe"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/strategy"
)

// TestSweepRejectsSinks: searches do not trace — the engine's session
// reuse bypasses span emission — so every grid-search entry point must
// reject a sink up front with ErrIncompatible.
func TestSweepRejectsSinks(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(1)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	sp := strategy.DefaultSpace()
	ctx := context.Background()
	for name, search := range map[string]func(obs.Sink) error{
		"Sweep": func(s obs.Sink) error {
			_, err := strategy.Sweep(ctx, strategy.Systems(), m, cl, tr, sp, strategy.WithSink(s))
			return err
		},
		"SearchContext": func(s obs.Sink) error {
			_, err := strategy.SearchContext(ctx, strategy.MEPipe, m, cl, tr, sp, strategy.WithSink(s))
			return err
		},
		"mepipe.Search": func(s obs.Sink) error {
			_, err := mepipe.Search(ctx, mepipe.MEPipe, m, cl, tr, sp, mepipe.WithTrace(s))
			return err
		},
	} {
		if err := search(obs.NewRecorder()); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("%s with sink = %v, want ErrIncompatible", name, err)
		}
	}
}
