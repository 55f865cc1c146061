package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/trace_digests.txt")

const traceDigestsFile = "testdata/trace_digests.txt"

// appendSink keeps events in emission order; obs.Recorder re-sorts them,
// which would hide an emission-order change.
type appendSink struct{ evs []obs.Event }

func (a *appendSink) Emit(e obs.Event) { a.evs = append(a.evs, e) }

// pinCosts is UniformCosts plus a transfer size that varies with both
// endpoints and the op, so EvComm payloads are pinned too.
type pinCosts struct{ UniformCosts }

func (c pinCosts) CommBytes(from, to int, op sched.Op) int64 {
	return int64(1000*(from+1) + 100*to + 10*op.Micro + op.Slice + 7*op.Chunk)
}

// pinMode is one weight-gradient treatment of the pinned matrix.
type pinMode struct {
	name    string
	split   bool
	pieces  int
	dynamic bool
}

var pinModes = []pinMode{
	{"fused", false, 0, false},
	{"split", true, 0, false},
	{"pieces", true, 2, false},
	{"split-dyn", true, 0, true},
	{"pieces-dyn", true, 2, true},
}

// digestWriter feeds fixed-width fields into a hash; hash.Hash writes never
// return an error, so theirs are dropped.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) i(v int64)   { _ = binary.Write(d.h, binary.LittleEndian, v) }
func (d digestWriter) f(v float64) { d.i(int64(math.Float64bits(v))) }
func (d digestWriter) s(v string)  { d.i(int64(len(v))); d.h.Write([]byte(v)) }
func (d digestWriter) b(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d digestWriter) op(o sched.Op) {
	d.i(int64(o.Kind))
	d.i(int64(o.Micro))
	d.i(int64(o.Slice))
	d.i(int64(o.Chunk))
	d.i(int64(o.Piece))
}

func eventsDigest(evs []obs.Event) string {
	d := digestWriter{sha256.New()}
	for _, e := range evs {
		d.i(int64(e.Kind))
		d.i(int64(e.Stage))
		d.i(int64(e.From))
		d.op(e.Op)
		d.f(e.Start)
		d.f(e.End)
		d.i(e.Bytes)
		d.i(e.Live)
		d.i(e.FLOPs)
		d.s(e.Cause)
	}
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

func resultDigest(r *Result) string {
	d := digestWriter{sha256.New()}
	d.f(r.IterTime)
	d.f(r.BubbleRatio)
	d.i(r.PeakAct)
	d.b(r.OOM)
	d.i(int64(r.OOMStage))
	d.b(r.SpansRecorded)
	for _, st := range r.Stages {
		d.f(st.ComputeTime)
		d.f(st.Finish)
		d.i(st.PeakAct)
		d.i(int64(len(st.Spans)))
		for _, sp := range st.Spans {
			d.op(sp.Op)
			d.f(sp.Start)
			d.f(sp.End)
		}
	}
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

// TestTraceDigestsPinned pins the simulator's raw traced output — the event
// stream in emission order and the Result — over 1080 SVPP configurations:
// P∈{2,3,4} × S∈{1,2} × N∈{2,4,6} × five weight-gradient modes × three
// communication delays × four activation budgets, all with per-stage tail
// time. The digests in testdata were recorded once and are never
// regenerated: any change to event order, timing, payloads, memory
// accounting or OOM reporting fails here. The matrix must also keep
// exercising every simulator event kind, every stall/drain cause and at
// least one OOM run, so it cannot silently lose coverage.
func TestTraceDigestsPinned(t *testing.T) {
	tail := func(k int) float64 { return 0.5 * float64(k+1) }
	var lines []string
	kinds := map[obs.EventKind]int{}
	causes := map[string]int{}
	ooms := 0
	for _, p := range []int{2, 3, 4} {
		for _, sl := range []int{1, 2} {
			for _, n := range []int{2, 4, 6} {
				for _, m := range pinModes {
					for _, comm := range []float64{0, 0.25, 2} {
						est := sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.5, Comm: comm}
						s, err := sched.SVPP(sched.SVPPOptions{
							P: p, V: 1, S: sl, N: n,
							Split: m.split, FineGrainedW: m.pieces, Est: est,
						})
						for _, bud := range []int64{0, 4, 7, 12} {
							name := fmt.Sprintf("p%d/s%d/n%d/%s/c%g/b%d", p, sl, n, m.name, comm, bud)
							if err != nil {
								lines = append(lines, name+" generate-error")
								continue
							}
							opt := Options{
								Sched: s, Costs: pinCosts{UniformCosts{Est: est, Act: 3, Grad: 1}},
								DynamicW: m.dynamic, TailTime: tail,
							}
							if bud > 0 {
								opt.ActBudget = make([]int64, p)
								for i := range opt.ActBudget {
									opt.ActBudget[i] = bud
								}
							}
							sink := &appendSink{}
							traced := opt
							traced.Trace = sink
							res, err := RunContext(context.Background(), traced)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							// The untraced run must agree with the traced one.
							plain, err := Run(opt)
							if err != nil {
								t.Fatalf("%s untraced: %v", name, err)
							}
							requireSameResult(t, res, plain, name)
							for _, e := range sink.evs {
								kinds[e.Kind]++
								causes[e.Cause]++
							}
							if res.OOM {
								ooms++
							}
							lines = append(lines, fmt.Sprintf("%s events=%d trace=%s result=%s",
								name, len(sink.evs), eventsDigest(sink.evs), resultDigest(res)))
						}
					}
				}
			}
		}
	}
	if len(lines) != 1080 {
		t.Fatalf("matrix has %d configurations, want 1080", len(lines))
	}
	for _, k := range []obs.EventKind{obs.EvOp, obs.EvComm, obs.EvAlloc, obs.EvFree, obs.EvStall, obs.EvBudget} {
		if kinds[k] == 0 {
			t.Errorf("matrix emits no %s events", k)
		}
	}
	for _, c := range []string{"", "dep", "comm", "drain-gap", "drain-tail", "drain-budget"} {
		if causes[c] == 0 {
			t.Errorf("matrix emits no events with cause %q", c)
		}
	}
	if ooms == 0 {
		t.Error("matrix has no OOM run")
	}
	if t.Failed() {
		return
	}

	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(traceDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		body := "# name events=<count> trace=<sha256 of events in emission order> result=<sha256 of Result>\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(traceDigestsFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests (%d OOM runs)", len(lines), ooms)
		return
	}
	f, err := os.Open(traceDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d entries, matrix has %d", traceDigestsFile, len(want), len(lines))
	}
	var bad []string
	for _, line := range lines {
		name, rest, _ := strings.Cut(line, " ")
		if want[name] != rest {
			bad = append(bad, fmt.Sprintf("%s:\n  got  %s\n  want %s", name, rest, want[name]))
		}
	}
	if n := len(bad); n > 0 {
		sort.Strings(bad)
		if n > 10 {
			bad = append(bad[:10], fmt.Sprintf("... and %d more", n-10))
		}
		t.Fatalf("%d configurations diverge from the pinned digests:\n%s", n, strings.Join(bad, "\n"))
	}
}
