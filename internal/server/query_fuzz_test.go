package server_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"kplist/internal/server"
)

// FuzzQuery fuzzes POST /v1/graphs/{id}/query on a live handler over a
// tiny registered graph: the JSON body (inline query or batch) and the
// mode, eps, conf, budget_ms, method, samples and precision parameters.
// Every input gets a 2xx or a 4xx, never a 5xx or a panic; the handler is
// called directly, so a panic fails the target.
func FuzzQuery(f *testing.F) {
	h := server.New(server.Config{}).Handler()
	rec := httptest.NewRecorder()
	// A K5 on 0..4 with a pendant path: cliques of every size up to 5.
	body := `{"n":8,"edges":[[0,1],[0,2],[0,3],[0,4],[1,2],[1,3],[1,4],[2,3],[2,4],[3,4],[4,5],[5,6],[6,7]]}`
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("register: status %d body %s", rec.Code, rec.Body)
	}
	path := "/v1/graphs/g1/query"
	for _, seed := range []struct {
		body                                                string
		mode, eps, conf, budget, method, samples, precision string
	}{
		{`{"p":4,"algo":"truth"}`, "", "", "", "", "", "", ""},
		{`{"p":4,"algo":"congest","includeCliques":true}`, "exact", "", "", "", "", "", ""},
		{`{"queries":[{"p":3,"algo":"congested-clique"},{"p":4,"algo":"eden"},{"p":5,"algo":"bogus"}]}`, "", "", "", "", "", "", ""},
		{`{"p":4,"algo":"fastk4","finalExponent":0.2}`, "", "", "", "", "", "", ""},
		{`{"p":4}`, "estimate", "0.1", "0.9", "50", "sample", "64", ""},
		{`{"p":4}`, "estimate", "", "", "", "hll", "", "10"},
		{`{"p":4}`, "estimate", "-1", "2", "-5", "nope", "x", "99"},
		{`{"p":3,"seed":7}`, "estimate", "NaN", "Inf", "1e3", "auto", "-3", "-1"},
		{`{"queries":[{"p":4}]}`, "estimate", "", "", "", "", "", ""},
		{`{"p":-1}`, "sideways", "", "", "", "", "", ""},
		{`not json`, "", "", "", "", "", "", ""},
		{`{"p":2000000000,"algo":"truth"}`, "", "", "", "", "", "", ""},
		// Found by this target: an unbounded sample count ran for tens
		// of seconds on this 13-edge graph; it is now a 400.
		{`{"p":4}`, "estimate", "", "", "", "sample", "100000000", ""},
	} {
		f.Add([]byte(seed.body), seed.mode, seed.eps, seed.conf, seed.budget, seed.method, seed.samples, seed.precision)
	}
	f.Fuzz(func(t *testing.T, body []byte, mode, eps, conf, budget, method, samples, precision string) {
		q := url.Values{}
		for name, v := range map[string]string{
			"mode": mode, "eps": eps, "conf": conf, "budget_ms": budget,
			"method": method, "samples": samples, "precision": precision,
		} {
			if v != "" {
				q.Set(name, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path+"?"+q.Encode(), strings.NewReader(string(body))))
		if rec.Code >= 500 || rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 {
			t.Fatalf("%s?%s: status %d body %s", body, q.Encode(), rec.Code, rec.Body)
		}
	})
}
