package strategy

import (
	"context"
	"fmt"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
)

// TestSearchReferenceMatchesSequential keeps the benchmark baseline honest:
// the cold reference path must return byte-identical results to the
// one-system SearchContext (candidates, order, counters and error text), so
// a speedup measured against SearchReference is a speedup against the same
// search, not against a strawman. TestSweepMatchesSequential extends the
// same comparison to the multi-system Sweep and to 8/16 GPUs.
func TestSearchReferenceMatchesSequential(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(4)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	for _, prune := range []bool{false, true} {
		t.Run(fmt.Sprintf("prune=%v", prune), func(t *testing.T) {
			sp := DefaultSpace()
			sp.Prune = prune
			for _, sys := range Systems() {
				want, wantErr := SearchContext(context.Background(), sys, m, cl, tr, sp)
				got, gotErr := SearchReference(context.Background(), sys, m, cl, tr, sp)
				sameSearch(t, "reference "+sys.String(), got, gotErr, want, wantErr)
			}
		})
	}
}
