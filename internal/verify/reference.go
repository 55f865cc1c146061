package verify

// The frozen pre-sweep certifier, kept as the tree stood before the
// streaming sweep engine landed: completeness via a per-stage op map and
// acyclicity via the labelled map-based graph (buildGraph), with no dense
// fast path. strategy.SearchReference certifies through CertifyReference
// so that mepipe-bench's reported speedup compares the sweep engine
// against the code it actually replaced, and so the equivalence tests pin
// the dense certifier against an independent implementation.
//
// buildGraph, residual, minimalCycle and sweep ARE the pre-sweep
// implementations, unchanged. Certify reaches them only as a fallback for
// tables the dense op index does not model; its own proof, cycle witness
// and memory sweep (kahnDense, kahnScratch.minimalCycle, checkMemory) run
// on the dense index and are pinned to this file by
// TestCertifyMatchesReference.
//
// Nothing here is reachable from production paths; do not "optimize" this
// file — its value is that it does not change.

import (
	"fmt"

	"mepipe/internal/sched"
)

// CertifyReference is the frozen pre-sweep Certify: identical guarantees,
// identical error types, original map-based proofs.
func CertifyReference(s *sched.Schedule, opts Options) (*Certificate, error) {
	if s == nil {
		return nil, &ShapeError{Schedule: "<nil>", Detail: "no schedule"}
	}
	if s.P <= 0 || s.V <= 0 || s.S <= 0 || s.N <= 0 {
		return nil, &ShapeError{Schedule: s.String(), Detail: "non-positive shape"}
	}
	if len(s.Stages) != s.P {
		return nil, &ShapeError{Schedule: s.String(),
			Detail: fmt.Sprintf("%d stage lists, want %d", len(s.Stages), s.P)}
	}
	if s.Place == nil {
		return nil, &ShapeError{Schedule: s.String(), Detail: "no chunk placement"}
	}
	if !opts.AssumeComplete {
		if err := refCheckComplete(s); err != nil {
			return nil, err
		}
	}
	cert := &Certificate{Schedule: s.String()}
	if err := refCheckAcyclic(s, cert); err != nil {
		return nil, err
	}
	if err := sweep(s, opts.Budget, cert); err != nil {
		return nil, err
	}
	return cert, nil
}

// refCheckComplete is the frozen map-based completeness pass.
func refCheckComplete(s *sched.Schedule) error {
	for k, ops := range s.Stages {
		seen := make(map[sched.Op]bool, len(ops))
		for _, op := range ops {
			if op.Micro < 0 || op.Micro >= s.N || op.Slice < 0 || op.Slice >= s.S ||
				op.Chunk < 0 || op.Chunk >= s.V || op.Piece < 0 {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: op %v out of range", k, op)}
			}
			if bad := kindMismatch(s, op); bad != "" {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: op %v %s", k, op, bad)}
			}
			if seen[op] {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: duplicate op %v", k, op)}
			}
			seen[op] = true
		}
		for m := 0; m < s.N; m++ {
			for i := 0; i < s.S; i++ {
				for j := 0; j < s.V; j++ {
					for _, op := range familyOps(s, m, i, j) {
						if !seen[op] {
							return &IncompleteError{Schedule: s.String(), Stage: k, Missing: op}
						}
					}
				}
			}
		}
	}
	return nil
}

// refCheckAcyclic is the frozen graph-based acyclicity pass: build the
// labelled map graph, fill the certificate's statistics from it, and
// extract the minimal counterexample on failure.
func refCheckAcyclic(s *sched.Schedule, cert *Certificate) error {
	g, err := buildGraph(s)
	if err != nil {
		return err
	}
	cert.Nodes = len(g.nodes)
	cert.Edges, cert.CrossEdges = g.edges()
	res := g.residual()
	if res == nil {
		return nil
	}
	nodes, kinds := g.minimalCycle(res)
	return &CycleError{Schedule: s.String(), Cycle: nodes, Kind: kinds}
}
