package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	v1 "mepipe/api/v1"
	"mepipe/internal/serve"
)

// serve-mixed: the response cache keeps its default size, and requests are
// seeded Zipf draws over a universe of valid /v1/simulate documents larger
// than the cache. Most requests are hits, so the wire (decode, normalize,
// key) and cache layers do most of the work; the misses beside them put
// and evict, and go through the simulator.

const (
	zipfS = 1.1
	// warmupRequests are sent at set-up so the cache holds its steady
	// working set before timing starts.
	warmupRequests = 5000
	// validDocs pins how many universe documents the program accepts. The
	// rest are refused with 422 (a system that cannot express the
	// strategy); a change in the count is a change in the program's
	// answers and fails set-up.
	validDocs = 744
)

// simulateUniverse returns every generated /v1/simulate document. Sizes are
// bounded: at most two servers, four pipeline stages and a global batch
// of 64.
func simulateUniverse() ([][]byte, error) {
	var docs [][]byte
	for _, sys := range []string{"mepipe", "dapple", "vpp", "zb", "zbv", "terapipe"} {
		for _, model := range []string{"7b", "13b"} {
			for _, gpu := range []string{"rtx4090", "a100"} {
				for _, servers := range []int{1, 2} {
					for _, pp := range []int{2, 4} {
						for _, gbs := range []int{8, 16, 32, 64} {
							for _, mb := range []int{1, 2} {
								body, err := json.Marshal(v1.PlanRequest{
									System:   sys,
									Model:    v1.ModelSpec{Preset: model},
									Cluster:  v1.ClusterSpec{Preset: gpu, Servers: servers},
									Training: v1.TrainingSpec{GlobalBatch: gbs, MicroBatch: mb},
									Parallel: &v1.ParallelSpec{PP: pp},
								})
								if err != nil {
									return nil, err
								}
								docs = append(docs, body)
							}
						}
					}
				}
			}
		}
	}
	return docs, nil
}

// zipfStream is the seeded request sequence: Zipf ranks mapped onto the
// valid documents through a seeded permutation.
type zipfStream struct {
	perm []int
	z    *rand.Zipf
}

func newZipfStream(seed int64, n int) *zipfStream {
	rng := rand.New(rand.NewSource(seed))
	return &zipfStream{perm: rng.Perm(n), z: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

// next returns the index of the next requested document.
func (z *zipfStream) next() int { return z.perm[z.z.Uint64()] }

type serveMixed struct {
	h      http.Handler
	docs   [][]byte
	want   []digest
	stream *zipfStream
}

func setupServeMixed(seed int64) (runner, error) {
	all, err := simulateUniverse()
	if err != nil {
		return nil, err
	}
	h := serve.New(serve.Options{}).Handler()
	sm := &serveMixed{h: h}
	for _, body := range all {
		r := call(h, http.MethodPost, "/v1/simulate", body)
		switch r.status {
		case http.StatusOK:
			sm.docs = append(sm.docs, body)
			sm.want = append(sm.want, digestOf(r.body))
		case http.StatusUnprocessableEntity:
		default:
			return nil, fmt.Errorf("/v1/simulate %s: status %d: %s", body, r.status, r.body)
		}
	}
	if len(sm.docs) != validDocs {
		return nil, fmt.Errorf("%d of %d universe documents valid, want %d", len(sm.docs), len(all), validDocs)
	}
	sm.stream = newZipfStream(seed, len(sm.docs))
	for i := 0; i < warmupRequests; i++ {
		j := sm.stream.next()
		if r := call(h, http.MethodPost, "/v1/simulate", sm.docs[j]); !r.check(sm.want[j]) {
			return nil, fmt.Errorf("warm-up /v1/simulate %s: status %d", sm.docs[j], r.status)
		}
	}
	return sm, nil
}

// loop sends Zipf draws until the deadline, calling each after every
// request.
func (sm *serveMixed) loop(deadline time.Time, each func(body []byte, r reply)) *samples {
	s := newSamples()
	t0 := now()
	for i := 0; ; i++ {
		// Reading the clock costs little next to a request, but check
		// it once every 64 requests all the same.
		if i%64 == 0 && !time.Now().Before(deadline) {
			break
		}
		j := sm.stream.next()
		r := call(sm.h, http.MethodPost, "/v1/simulate", sm.docs[j])
		s.add(r.cache, r.took, r.check(sm.want[j]))
		if each != nil {
			each(sm.docs[j], r)
		}
	}
	s.elapsed = t0.since()
	return s
}

func (sm *serveMixed) run(deadline time.Time) *samples { return sm.loop(deadline, nil) }

func (sm *serveMixed) extra(s *samples) []metric {
	return keep(nil,
		metric{"p99_norm_ms", "ms", s.percentile(0.99)},
		metric{"hit_p50_norm_ms", "ms", s.classPercentile("hit", 0.5)},
		metric{"miss_p50_norm_ms", "ms", s.classPercentile("miss", 0.5)},
		metric{"miss_p99_norm_ms", "ms", s.classPercentile("miss", 0.99)},
		metric{"hit_ratio", "ratio", ratio(float64(s.classCount("hit")), float64(s.done))},
	)
}

// traced times the wire layer's exported calls on each request's document
// after the request, and reads the cache counters from GET /v1/stats.
func (sm *serveMixed) traced(deadline time.Time) (*samples, []metric, error) {
	before, err := sm.stats()
	if err != nil {
		return nil, nil, err
	}
	var decode, compile, key, hit []float64
	bad := 0
	s := sm.loop(deadline, func(body []byte, r reply) {
		if r.cache == "hit" {
			hit = append(hit, r.took.cpu.Seconds())
		}
		t0 := time.Now()
		req, err := v1.DecodePlanRequest(bytes.NewReader(body))
		t1 := time.Now()
		if err == nil {
			_, err = req.Compile()
		}
		t2 := time.Now()
		if err == nil {
			_, err = req.Key("simulate")
		}
		t3 := time.Now()
		if err != nil {
			bad++
			return
		}
		decode = append(decode, t1.Sub(t0).Seconds())
		compile = append(compile, t2.Sub(t1).Seconds())
		key = append(key, t3.Sub(t2).Seconds())
	})
	s.failed += bad
	after, err := sm.stats()
	if err != nil {
		return nil, nil, err
	}
	b, a := before.Endpoints["/v1/simulate"], after.Endpoints["/v1/simulate"]
	hits := float64(a.Hits - b.Hits)
	served := hits + float64(a.Misses-b.Misses) + float64(a.Coalesced-b.Coalesced)
	return s, []metric{
		{"v1.decode_us", "us", 1e6 * median(decode)},
		{"v1.compile_us", "us", 1e6 * median(compile)},
		{"v1.key_us", "us", 1e6 * median(key)},
		{"serve.hit_us", "us", 1e6 * median(hit)},
		{"serve.hit_ratio", "ratio", ratio(hits, served)},
		{"serve.evictions", "per_1k_req", 1000 * ratio(float64(after.Cache.Evictions-before.Cache.Evictions), served)},
		{"serve.coalesced", "count", float64(a.Coalesced - b.Coalesced)},
	}, nil
}

// stats reads the server's counters.
func (sm *serveMixed) stats() (*v1.StatsResponse, error) {
	r := call(sm.h, http.MethodGet, "/v1/stats", nil)
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", r.status)
	}
	var st v1.StatsResponse
	if err := json.Unmarshal(r.body, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}
