package sim

import (
	"context"
	"fmt"
	"math"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// engState is the Session's event-loop engine: a dense replay of the
// reference runner's loop over the session's id tables, on arrays that are
// allocated once and reused across runs. It serves the two jobs the
// incremental static solver cannot: dynamic mode (§5), whose W drain order
// depends on runtime decisions across stages, and traced runs in either
// mode, whose events must come out in execution order. Static mode runs W
// ops at their list positions; queueing and drains happen only under
// DynamicW. The engine mirrors the runner op-for-op (same tie-breaks, same
// math.Max calls, same epsilons), so Results and event streams are
// bitwise-identical to RunReference.
type engState struct {
	cursor []int // per stage: position of the next scheduled (non-W) op
	free   []float64
	comp   []float64
	live   []int64
	peak   []int64
	drain  []int64
	wq     [][]wRef
	wqHead []int
	fin    []float64
	done   []uint32
	ep     uint32
	oom    bool
	oomAt  int
	sink   obs.Sink // nil on untraced runs
}

type wRef struct {
	id    int32
	ready float64
}

// runEngine executes the bound order once, emitting events into sink when
// it is non-nil. ctx is checked every 256 executed ops.
func (se *Session) runEngine(ctx context.Context, sink obs.Sink) error {
	e := se.eng
	if e == nil {
		e = &engState{}
		se.eng = e
	}
	e.sink = sink
	defer func() { e.sink = nil }()
	e.cursor = sgrow(e.cursor, se.P)
	e.free = sgrow(e.free, se.P)
	e.comp = sgrow(e.comp, se.P)
	e.live = sgrow(e.live, se.P)
	e.peak = sgrow(e.peak, se.P)
	e.drain = sgrow(e.drain, se.P)
	e.wq = sgrow(e.wq, se.P)
	e.wqHead = sgrow(e.wqHead, se.P)
	e.fin = sgrow(e.fin, se.n)
	e.done = sgrow(e.done, se.n)
	e.ep++
	se.famEpoch++
	e.oom = false
	e.oomAt = 0
	for k := 0; k < se.P; k++ {
		e.cursor[k] = 0
		se.engSkip(k)
		e.free[k] = 0
		e.comp[k] = 0
		e.live[k] = 0
		e.peak[k] = 0
		e.drain[k] = 0
		e.wq[k] = e.wq[k][:0]
		e.wqHead[k] = 0
		if se.record {
			se.spanBuf[k] = se.spanBuf[k][:0]
		}
	}
	done := 0
	for done < se.n {
		// Amortise the context check: once every 256 executed ops is
		// cheap but still bounds cancellation latency for huge grids.
		if done&0xff == 0 && ctx.Err() != nil {
			return fmt.Errorf("sim: run %w: %v", errs.ErrCancelled, ctx.Err())
		}
		k, ok := se.engNext()
		if !ok {
			return fmt.Errorf("sim: session: deadlock with %d/%d ops executed (schedule order violates dependencies): %w", done, se.n, errs.ErrUncertified)
		}
		done += se.engExecute(k)
	}
	return nil
}

// engSkip advances stage k's cursor past statically-placed W/WPiece entries
// in dynamic mode; the engine executes those from the per-stage queue
// instead, exactly as the runner strips them from its order.
func (se *Session) engSkip(k int) {
	if !se.dynamicW {
		return
	}
	e := se.eng
	ord := se.order[k]
	c := e.cursor[k]
	for c < len(ord) {
		kd := se.opsl[ord[c]].Kind
		if kd != sched.W && kd != sched.WPiece {
			break
		}
		c++
	}
	e.cursor[k] = c
}

// engNext mirrors the runner's nextStage: earliest next start wins, ties go
// to the lowest stage.
func (se *Session) engNext() (int, bool) {
	e := se.eng
	best, bestStart, found := -1, math.Inf(1), false
	for k := 0; k < se.P; k++ {
		if e.cursor[k] >= len(se.order[k]) && e.wqHead[k] >= len(e.wq[k]) {
			continue
		}
		start, ok := se.engStart(k)
		if !ok {
			continue
		}
		if start < bestStart {
			best, bestStart, found = k, start, true
		}
	}
	return best, found
}

func (se *Session) engStart(k int) (float64, bool) {
	e := se.eng
	if e.cursor[k] < len(se.order[k]) {
		id := se.order[k][e.cursor[k]]
		rt, ok := se.engReady(id)
		if ok {
			return max(e.free[k], rt), true
		}
		// Next scheduled op blocked: a queued W can still run.
	}
	if e.wqHead[k] < len(e.wq[k]) {
		return max(e.free[k], e.wq[k][e.wqHead[k]].ready), true
	}
	return 0, false
}

func (se *Session) engReady(id int32) (float64, bool) {
	e := se.eng
	t := 0.0
	for ed := se.depOff[id]; ed < se.depOff[id+1]; ed++ {
		d := se.depID[ed]
		if e.done[d] != e.ep {
			return 0, false
		}
		f := e.fin[d] + se.depComm[ed]
		if f > t {
			t = f
		}
	}
	return t, true
}

func (se *Session) engExecute(k int) int {
	e := se.eng
	if e.cursor[k] < len(se.order[k]) {
		id := se.order[k][e.cursor[k]]
		rt, ok := se.engReady(id)
		if ok {
			start := max(e.free[k], rt)
			if n := se.engFillGap(k, start, id); n > 0 {
				return n
			}
			if e.sink != nil {
				se.engTraceWait(k, id, start)
			}
			e.cursor[k]++
			se.engSkip(k)
			se.engRunOp(k, id, start, "")
			return 1
		}
		if e.wqHead[k] < len(e.wq[k]) {
			return se.engPopW(k, "drain-gap")
		}
		return 0
	}
	if e.wqHead[k] < len(e.wq[k]) {
		return se.engPopW(k, "drain-tail")
	}
	return 0
}

// engTraceWait emits the comm events feeding op id and classifies any idle
// gap before start as a dependency or communication stall.
func (se *Session) engTraceWait(k int, id int32, start float64) {
	const eps = 1e-12
	e := se.eng
	op := se.opsl[id]
	depReady := 0.0 // latest dependency finish, communication excluded
	for ed := se.depOff[id]; ed < se.depOff[id+1]; ed++ {
		d := se.depID[ed]
		f := e.fin[d]
		if f > depReady {
			depReady = f
		}
		if from := int(se.stg[d]); from != k {
			var bytes int64
			if be, ok := se.opt.Costs.(BytesEstimator); ok {
				bytes = be.CommBytes(from, k, se.opsl[d])
			}
			e.sink.Emit(obs.Event{
				Kind: obs.EvComm, Stage: k, From: from, Op: op,
				Start: f, End: f + se.depComm[ed], Bytes: bytes,
			})
		}
	}
	if start <= e.free[k]+eps {
		return // no idle gap
	}
	cause := "dep"
	if depReady <= e.free[k]+eps {
		// Inputs were computed before the stage went idle; the wait is
		// purely tensors in flight.
		cause = "comm"
	}
	e.sink.Emit(obs.Event{
		Kind: obs.EvStall, Stage: k, From: k, Op: op,
		Start: e.free[k], End: start, Cause: cause,
	})
}

// engFillGap mirrors the runner's fillGap: drain a queued W that fits the
// stall before start, or — under memory pressure that draining can actually
// cover — before admitting an allocating op.
func (se *Session) engFillGap(k int, start float64, nextID int32) int {
	e := se.eng
	if e.wqHead[k] >= len(e.wq[k]) {
		return 0
	}
	w := e.wq[k][e.wqHead[k]]
	wStart := max(e.free[k], w.ready)
	dur := se.dur[w.id]
	const eps = 1e-9
	if wStart+dur <= start+eps {
		return se.engPopW(k, "drain-gap")
	}
	if se.hasBudget {
		var need int64
		switch se.opsl[nextID].Kind {
		case sched.F, sched.BAct:
			need = se.memB[nextID]
		}
		if need > 0 && e.live[k]+need > se.budget[k] {
			if e.live[k]+need-e.drain[k] > se.budget[k] {
				// Uncoverable overshoot: admit the op and let its
				// allocation flag the OOM (see runner.fillGap).
				return 0
			}
			if e.sink != nil {
				e.sink.Emit(obs.Event{
					Kind: obs.EvBudget, Stage: k, From: k, Op: se.opsl[nextID],
					Start: e.free[k], End: e.free[k],
					Bytes: need, Live: e.live[k],
				})
			}
			return se.engPopW(k, "drain-budget")
		}
	}
	return 0
}

// engPopW executes the head of stage k's W queue; cause tags the drain in
// traces.
func (se *Session) engPopW(k int, cause string) int {
	e := se.eng
	w := e.wq[k][e.wqHead[k]]
	e.wqHead[k]++
	if e.wqHead[k] == len(e.wq[k]) {
		e.wq[k] = e.wq[k][:0]
		e.wqHead[k] = 0
	}
	start := max(e.free[k], w.ready)
	se.engRunOp(k, w.id, start, cause)
	return 1
}

// engRunOp executes op id at start, updating time, memory and the W queue.
// cause is non-empty for weight-gradient work drained by the dynamic engine.
func (se *Session) engRunOp(k int, id int32, start float64, cause string) {
	e := se.eng
	dur := se.dur[id]
	end := start + dur
	e.free[k] = end
	e.comp[k] += dur
	if se.record {
		se.spanBuf[k] = append(se.spanBuf[k], Span{Op: se.opsl[id], Start: start, End: end})
	}
	e.fin[id] = end
	e.done[id] = e.ep
	if e.sink != nil {
		e.sink.Emit(obs.Event{
			Kind: obs.EvOp, Stage: k, From: k, Op: se.opsl[id],
			Start: start, End: end, Cause: cause,
		})
	}
	f := se.famID[id]
	switch se.opsl[id].Kind {
	case sched.F:
		se.engAlloc(k, id, se.memB[id])
	case sched.B:
		se.engRelease(k, id)
	case sched.BAct:
		se.engAlloc(k, id, se.memB[id])
		if se.dynamicW {
			se.engEnqueueW(k, id, end)
		}
	case sched.W:
		if se.dynamicW {
			se.touchFam(f)
			e.drain[k] -= se.famAcc[f]
		}
		se.engRelease(k, id)
	case sched.WPiece:
		se.touchFam(f)
		se.famCnt[f]++
		if int(se.famCnt[f]) == se.wPieces {
			if se.dynamicW {
				e.drain[k] -= se.famAcc[f]
			}
			se.engRelease(k, id)
		}
	}
}

// engEnqueueW queues the family's precomputed weight-gradient ops and makes
// its retained bytes drainable, mirroring the runner's enqueueW.
func (se *Session) engEnqueueW(k int, bID int32, ready float64) {
	e := se.eng
	f := se.famID[bID]
	se.touchFam(f)
	e.drain[k] += se.famAcc[f]
	for w := se.wOff[bID]; w < se.wOff[bID+1]; w++ {
		e.wq[k] = append(e.wq[k], wRef{se.wIDs[w], ready})
	}
}

// engAlloc charges bytes to op id's family on stage k.
func (se *Session) engAlloc(k int, id int32, bytes int64) {
	e := se.eng
	f := se.famID[id]
	se.touchFam(f)
	se.famAcc[f] += bytes
	e.live[k] += bytes
	if e.live[k] > e.peak[k] {
		e.peak[k] = e.live[k]
	}
	if e.sink != nil && bytes != 0 {
		e.sink.Emit(obs.Event{
			Kind: obs.EvAlloc, Stage: k, From: k, Op: se.opsl[id].Key(),
			Start: e.free[k], End: e.free[k], Bytes: bytes, Live: e.live[k],
		})
	}
	if se.hasBudget && e.live[k] > se.budget[k] && !e.oom {
		// Static schedules simply exceed (drain stays zero outside
		// dynamic mode). Dynamic mode is OOM exactly when draining every
		// queued weight gradient could not bring the stage back under
		// budget.
		if e.live[k]-e.drain[k] > se.budget[k] {
			e.oom = true
			e.oomAt = k
		}
	}
}

// engRelease frees op id's family retention on stage k.
func (se *Session) engRelease(k int, id int32) {
	e := se.eng
	f := se.famID[id]
	se.touchFam(f)
	freed := se.famAcc[f]
	e.live[k] -= freed
	se.famAcc[f] = 0
	if e.sink != nil && freed != 0 {
		e.sink.Emit(obs.Event{
			Kind: obs.EvFree, Stage: k, From: k, Op: se.opsl[id].Key(),
			Start: e.free[k], End: e.free[k], Bytes: freed, Live: e.live[k],
		})
	}
}

// assembleEngine writes the Result from the engine's per-stage state in
// the runner's result() float-operation order.
func (se *Session) assembleEngine() {
	e := se.eng
	res := &se.res
	res.SpansRecorded = se.record
	res.PeakAct = 0
	end := 0.0
	for k := 0; k < se.P; k++ {
		fin := e.free[k]
		if se.hasTail {
			fin += se.tailV[k]
		}
		var spans []Span
		if se.record {
			spans = se.spanBuf[k]
		}
		res.Stages[k] = StageResult{Spans: spans, ComputeTime: e.comp[k], Finish: fin, PeakAct: e.peak[k]}
		if fin > end {
			end = fin
		}
		if e.peak[k] > res.PeakAct {
			res.PeakAct = e.peak[k]
		}
	}
	res.IterTime = end
	busy := 0.0
	for k := 0; k < se.P; k++ {
		busy += e.comp[k]
		if se.hasTail {
			busy += se.tailV[k]
		}
	}
	res.BubbleRatio = 0
	if end > 0 {
		res.BubbleRatio = 1 - busy/(float64(se.P)*end)
	}
	res.OOM = e.oom
	res.OOMStage = e.oomAt
}
