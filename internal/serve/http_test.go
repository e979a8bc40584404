package serve

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"deepqueuenet/internal/obs"
)

// okServer builds a server whose runner always succeeds.
func okServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	r := &stubRunner{fn: func(context.Context, *Request, RunMode, int) (*Result, error) {
		return okResult("model"), nil
	}}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1
	}
	cfg.RetryMax = -1
	s := mustNew(t, cfg, r)
	t.Cleanup(func() { drainServer(t, s) })
	return s
}

// TestBodyTooLargeIs413 is the regression test for the unbounded-body
// bug: handleSimulate used to decode r.Body with no cap, so one huge
// request could exhaust memory. Overflow must map to 413, not 400.
func TestBodyTooLargeIs413(t *testing.T) {
	s := okServer(t, Config{MaxBodyBytes: 256})
	h := s.Handler()

	// The body is read whole before it is parsed, so an over-cap body is
	// 413 whatever it holds, malformed JSON included.
	for _, big := range []string{
		`{"topo":"line4","note":"` + strings.Repeat("x", 1024) + `"}`,
		strings.Repeat("a", 1024),
	} {
		rec := postSimBody(h, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: status %d, want 413 (body %s)", rec.Code, rec.Body.String())
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Kind != "too_large" {
			t.Fatalf("kind = %q, want too_large", eb.Kind)
		}
	}

	// A body under the cap still works.
	rec := postSimBody(h, `{"topo":"line4"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body: status %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	if st := s.Snapshot(); st.Rejected != 0 {
		t.Fatalf("413 must happen before admission; rejected = %d", st.Rejected)
	}
}

// TestTrailingGarbageIs400 is the regression test for silent
// trailing-data acceptance: json.Decoder.Decode reads one value and
// stops, so `{}{"topo":"evil"}` used to be accepted as `{}`.
func TestTrailingGarbageIs400(t *testing.T) {
	s := okServer(t, Config{})
	h := s.Handler()
	for _, body := range []string{
		`{"topo":"line4"}{"topo":"other"}`,
		`{"topo":"line4"} trailing`,
		`{"topo":"line4"}[]`,
	} {
		rec := postSimBody(h, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// Trailing whitespace is fine — it is not a second document.
	rec := postSimBody(h, `{"topo":"line4"}`+"\n  \n")
	if rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
}

// TestUnknownFieldIs400: a misspelt field used to be dropped, so
// {"laod":0.9} ran at the default load, and a client still sending the
// retired "nosec" field silently got SEC. Both are 400 bad_request now,
// refused before admission, as is every body the strict reader refuses
// that encoding/json would have accepted (strictnessSeeds).
func TestUnknownFieldIs400(t *testing.T) {
	s := okServer(t, Config{})
	h := s.Handler()
	cases := []struct{ body, want string }{
		{`{"topo":"line4","laod":0.9}`, "unknown field"},
		{`{"topo":"line4","nosec":true}`, "unknown field"},
	}
	for _, c := range append(cases, strictnessSeeds...) {
		rec := postSimBody(h, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400 (body %s)", c.body, rec.Code, rec.Body.String())
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Kind != "bad_request" || !strings.Contains(eb.Error, c.want) {
			t.Fatalf("body %s: error body %+v, want kind bad_request containing %q", c.body, eb, c.want)
		}
	}
	if st := s.Snapshot(); st.Received != 0 {
		t.Fatalf("unknown fields must be refused before admission; received = %d", st.Received)
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	s := okServer(t, Config{})
	rec := postSimBody(s.Handler(), `{"topo":`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

// TestMetricsEndpointSmoke drives a request through the full handler
// and asserts /metrics exposes consistent serve-layer counters — the
// `make metrics-smoke` gate.
func TestMetricsEndpointSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	s := okServer(t, Config{Metrics: reg})
	h := s.Handler()

	if rec := postSimBody(h, `{"topo":"line4"}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d (%s)", rec.Code, rec.Body.String())
	}
	postSimBody(h, `not json`)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE dqn_requests_received_total counter",
		"dqn_requests_received_total 1",
		`dqn_requests_total{outcome="completed"} 1`,
		`dqn_http_requests_total{code="200",path="/simulate"} 1`,
		`dqn_http_requests_total{code="400",path="/simulate"} 1`,
		"# TYPE dqn_job_seconds histogram",
		"dqn_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The registry accessor serves the same state.
	if v, ok := s.Metrics().Value("dqn_requests_received_total"); !ok || v != 1 {
		t.Fatalf("Metrics().Value = %v,%v", v, ok)
	}
}

// TestUnknownRouteBounded: hostile path sweeps must collapse into the
// "other" label, not mint one series per URL.
func TestUnknownRouteBounded(t *testing.T) {
	s := okServer(t, Config{})
	h := s.Handler()
	for _, p := range []string{"/a", "/b", "/c"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
	}
	if v, ok := s.Metrics().Value("dqn_http_requests_total", obs.L("path", "other"), obs.L("code", "404")); !ok || v != 3 {
		t.Fatalf("other/404 = %v,%v, want 3", v, ok)
	}
}

// TestRequestLogging exercises the slog seam: one record per exchange.
func TestRequestLogging(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := okServer(t, Config{Logger: logger})
	h := s.Handler()
	if rec := postSimBody(h, `{"topo":"line4"}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d", rec.Code)
	}
	out := buf.String()
	for _, want := range []string{"http_request", "path=/simulate", "status=200", "method=POST"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

func postSimBody(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body)))
	return rec
}

// TestUnstableScenarioIs422 is the regression test for saturated
// scenarios surfacing as server failures: a fidelity:"fast" request whose
// flow pattern offers some port more than its capacity used to come back
// as HTTP 500 kind "failure". It is a well-formed request without a
// steady-state answer: 422 kind "unstable", counted once under failed
// (the accounting identity holds), with no breaker or run-time estimate
// touched.
func TestUnstableScenarioIs422(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1}, &ScenarioRunner{})
	t.Cleanup(func() { drainServer(t, s) })
	h := s.Handler()

	// Abilene's flow pattern for seed 10 piles more echo legs onto one
	// port than the calibration's reversed-forward-path count assumes
	// (testdata/golden/routing_bits.json records it as unstable).
	rec := postSimBody(h, `{"topo":"abilene","load":0.7,"seed":10,"fidelity":"fast"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("saturated scenario: status %d, want 422 (body %s)", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "unstable" || !strings.Contains(eb.Error, "rho") {
		t.Fatalf("error body = %+v, want kind unstable naming the saturated port", eb)
	}

	// The same topology at a seed that fits still answers.
	rec = postSimBody(h, `{"topo":"abilene","load":0.7,"seed":1,"fidelity":"fast"}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-DQN-Fidelity") != "analytic" {
		t.Fatalf("stable scenario: status %d fidelity %q (body %s)", rec.Code, rec.Header().Get("X-DQN-Fidelity"), rec.Body.String())
	}

	st := s.Snapshot()
	if st.Received != 2 || st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("received %d completed %d failed %d, want 2/1/1", st.Received, st.Completed, st.Failed)
	}
	if sum := st.Completed + st.Failed + st.Shed + st.Rejected + st.Canceled + st.Deadline; sum != st.Received {
		t.Fatalf("accounting identity broken: outcomes sum to %d, received %d", sum, st.Received)
	}
	if len(st.Breakers) != 0 || s.OpenBreakers() != 0 || st.AvgRunMs != 0 {
		t.Fatalf("unstable answer touched breaker/EWMA state: breakers %v avg_run_ms %v", st.Breakers, st.AvgRunMs)
	}
}
