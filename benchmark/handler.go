package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
)

// reply is one in-process response.
type reply struct {
	status int
	cache  string // X-Mepipe-Cache: hit, miss or coalesced
	body   []byte
	took   cost
}

// call sends one request straight into the handler, with no socket in
// between: loopback HTTP adds a millisecond-scale tail that belongs to the
// host, not to the program.
func call(h http.Handler, method, path string, body []byte) reply {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := now()
	h.ServeHTTP(rec, req)
	took := t0.since()
	return reply{status: rec.Code, cache: rec.Header().Get("X-Mepipe-Cache"), body: rec.Body.Bytes(), took: took}
}

// check reports whether a reply is the expected 200 with the expected body.
func (r reply) check(want digest) bool {
	return r.status == http.StatusOK && digestOf(r.body) == want
}
