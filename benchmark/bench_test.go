package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	v1 "mepipe/api/v1"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i+1) / 1000
		}
		return xs
	}
	for _, c := range []struct {
		q    float64
		n    int
		want float64 // ms; NaN when the percentile must not be reported
	}{
		{0.5, 19, math.NaN()},
		{0.5, 20, 10},
		{0.9, 99, math.NaN()},
		{0.9, 100, 90},
		{0.99, 999, math.NaN()},
		{0.99, 1000, 990},
		{0.5, 0, math.NaN()},
	} {
		got := percentileMS(sorted(c.n), c.q)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(got) && math.Abs(got-c.want) > 1e-9) {
			t.Errorf("p%v of %d samples = %v, want %v", 100*c.q, c.n, got, c.want)
		}
	}
}

func TestEndToEndDropsUnsupportedPercentiles(t *testing.T) {
	s := newSamples()
	for i := 0; i < 50; i++ {
		s.add("", cost{time.Millisecond, time.Millisecond}, true)
	}
	s.elapsed = cost{time.Second, time.Second}
	got := map[string]bool{}
	for _, m := range append(s.endToEnd(), s.ungated()...) {
		got[m.name] = true
	}
	want := map[string]bool{
		"ops_per_norm_s": true, "p50_norm_ms": true,
		"ops_per_cpu_s": true, "p50_cpu_ms": true,
		"ops_per_s": true, "p50_ms": true,
	}
	if len(got) != len(want) {
		t.Fatalf("50 samples reported %v; want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("50 samples reported %v; want %v", got, want)
		}
	}
}

func TestNormalizeByMedianReference(t *testing.T) {
	ms := time.Millisecond
	if got := medianRef([refWindow]time.Duration{9 * ms, 2 * ms, 2 * ms, 3 * ms, 1 * ms}); got != 2*ms {
		t.Fatalf("median reference %v, want 2ms: one slow run must not move it", got)
	}
	sp := &speed{cur: 2 * ms}
	if got, want := sp.normalize(6*ms), 3*refUnit; got != want {
		t.Fatalf("6 ms of CPU at a 2 ms reference normalized to %v, want %v", got, want)
	}
	sp = newSpeed()
	if sp.cur <= 0 || sp.last <= 0 {
		t.Fatalf("a fresh measurement gave reference %v at CPU clock %v", sp.cur, sp.last)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	docs, err := simulateUniverse()
	if err != nil {
		t.Fatal(err)
	}
	seq := func(seed int64) []byte {
		z := newZipfStream(seed, len(docs))
		var b bytes.Buffer
		for i := 0; i < 2000; i++ {
			b.Write(docs[z.next()])
		}
		return b.Bytes()
	}
	if !bytes.Equal(seq(7), seq(7)) {
		t.Fatal("seed 7 gave two different request sequences")
	}
	if bytes.Equal(seq(7), seq(8)) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
}

func TestTamperedBodyFailsCheck(t *testing.T) {
	body := []byte(`{"api":"v1","key":"k","iter_time_s":1.5}`)
	want := digestOf(body)
	if !(reply{status: http.StatusOK, body: body}).check(want) {
		t.Fatal("the recorded body failed its own check")
	}
	tampered := append([]byte(nil), body...)
	tampered[len(tampered)-2] = '6'
	if (reply{status: http.StatusOK, body: tampered}).check(want) {
		t.Fatal("a tampered body passed the check")
	}
	if (reply{status: http.StatusInternalServerError, body: body}).check(want) {
		t.Fatal("a wrong status passed the check")
	}
}

func TestPlanColdRunsWholePasses(t *testing.T) {
	docs, err := planColdDocs()
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte(r.URL.Path)) //nolint:errcheck // test stub
	})
	for _, d := range docs {
		d.want = digestOf([]byte(d.path))
	}
	p := &planCold{h: h, docs: docs, rng: rand.New(rand.NewSource(1))}
	for _, dl := range []time.Duration{-time.Second, 3 * time.Millisecond, 20 * time.Millisecond} {
		s := p.run(time.Now().Add(dl))
		if s.ops == 0 || s.ops%len(docs) != 0 || s.failed != 0 {
			t.Errorf("deadline %v: %d ops, %d failed; want whole passes of %d", dl, s.ops, s.failed, len(docs))
		}
		for _, c := range []string{"sweep", "search", "optimize"} {
			if n := s.classCount(c); n*len(docs) != s.ops*countClass(docs, c) {
				t.Errorf("deadline %v: %d %s requests in %d ops", dl, n, c, s.ops)
			}
		}
	}
}

func countClass(docs []*planDoc, class string) int {
	n := 0
	for _, d := range docs {
		if d.class == class {
			n++
		}
	}
	return n
}

// Generated documents stay within the sizes the workloads are defined
// over, so no seed can ask the program for unbounded work.
func TestGeneratedDocumentsBounded(t *testing.T) {
	docs, err := simulateUniverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range docs {
		req, err := v1.DecodePlanRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if req.Training.GlobalBatch > 64 || req.Cluster.Servers > 2 || req.Parallel.PP > 4 {
			t.Fatalf("%s exceeds the serve-mixed bounds", body)
		}
	}
	pdocs, err := planColdDocs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pdocs) != 8 {
		t.Fatalf("%d plan-cold documents, want 8", len(pdocs))
	}
	for _, d := range pdocs {
		if d.class == "optimize" {
			req, err := v1.DecodeOptimizeRequest(bytes.NewReader(d.body))
			if err != nil {
				t.Fatal(err)
			}
			if req.Opt.Iters > 50 || req.Training.GlobalBatch > 8 {
				t.Fatalf("%s exceeds the plan-cold optimize bounds", d.body)
			}
		}
	}
}
