package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/strictjson"
)

// HTTP API:
//
//	POST /simulate  — run one what-if query (Request JSON in, Result out)
//	GET  /jobs/{id} — durable-job record (404 unless Config.StateDir set)
//	GET  /healthz   — liveness: 200 while the process is up
//	GET  /readyz    — readiness: 200 accepting, 503 draining
//	GET  /stats     — Stats JSON (counters, breakers, queue state)
//	GET  /metrics   — Prometheus text exposition of the obs registry
//
// Failure → status mapping:
//
//	queue full            429 + Retry-After (200 analytic under -brownout)
//	draining              503 + Retry-After
//	bad request           400 (malformed JSON, trailing data, unknown,
//	                      case-folded or repeated keys, escapes or
//	                      null values, bad params, unknown fidelity)
//	body too large        413 (Config.MaxBodyBytes)
//	deadline exceeded     504
//	canceled              499 (client closed request, nginx convention)
//	inference failure     500 (after retries; breaker charged)
//	breaker open          200 analytic + X-DQN-Degraded; 503 +
//	                      Retry-After for fidelity "exact" or when
//	                      the analytic tier errors
//
// Every 200 carries X-DQN-Fidelity: exact|analytic — the
// degradation-ladder tier that produced the answer.

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// StatusClientClosedRequest is nginx's conventional status for a
// request whose client went away before the response was ready.
const StatusClientClosedRequest = 499

// Handler returns the server's HTTP API, wrapped in the observability
// middleware (request counters by route/status plus optional slog
// request logging).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/simulate", s.handleSimulate)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.instrument(mux)
}

// knownRoutes bounds the path label's cardinality: anything else is
// counted as "other" so hostile URL sweeps cannot grow the registry.
// Job lookups collapse to one "/jobs" label for the same reason.
var knownRoutes = map[string]bool{
	"/simulate": true, "/jobs": true, "/healthz": true, "/readyz": true,
	"/stats": true, "/metrics": true,
}

// statusRecorder captures the status code and body size a handler
// wrote, for the request counter and the access log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// instrument wraps the API with per-request accounting: one
// dqn_http_requests_total increment per exchange and, when a Logger is
// configured, one structured record per exchange.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		route := r.URL.Path
		if strings.HasPrefix(route, "/jobs/") {
			route = "/jobs"
		}
		if !knownRoutes[route] {
			route = "other"
		}
		s.met.httpRequest(route, rec.code)
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "http_request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.code),
				slog.Int("bytes", rec.bytes),
				slog.Duration("duration", s.cfg.Now().Sub(start)),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only", Kind: "method"})
		return
	}
	req, errStatus, err := s.decodeRequest(w, r)
	if err != nil {
		writeJSON(w, errStatus, errorBody{Error: err.Error(), Kind: kindFor(errStatus)})
		return
	}
	res, id, err := s.SubmitJob(r.Context(), req)
	// The header keys are written in canonical form (X-Dqn-…), which
	// Header.Set keeps as given instead of rebuilding per response.
	if id != "" {
		w.Header().Set("X-Dqn-Job", id)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := appendResult(make([]byte, 0, 512), res)
	if err != nil {
		// A non-finite statistic has no JSON form; writeJSON answers the
		// same 500 for any other body.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("X-Dqn-Fidelity", res.Fidelity)
	if res.BreakerOpen {
		h.Set("X-Dqn-Degraded", "breaker-open")
	}
	writeBody(w, http.StatusOK, body)
}

// handleJob serves GET /jobs/{id}: the durable record of one admitted
// job. 404s when durability is off, the ID is malformed (the traversal
// guard), or no record exists.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only", Kind: "method"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	rec, err := s.Job(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job", Kind: "not_found"})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// decodeRequest reads one Request from a size-capped body. A body over
// Config.MaxBodyBytes maps to 413, whatever its content; any body
// parseRequest refuses maps to 400: a misspelt field or a second
// document would otherwise be silently ignored, masking client bugs.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, int, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request: %w", err)
	}
	req, err := parseRequest(data)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return req, 0, nil
}

// requestKeys are the wire fields of a Request.
var requestKeys = []string{"topo", "sched", "traffic", "load", "duration", "seed",
	"shards", "model", "timeout_ms", "fidelity"}

// parseRequest decodes a POST /simulate body in one strict scan
// (internal/strictjson): the object's keys must be Request's wire names,
// each at most once and spelt exactly, with no escapes in keys or
// strings, no null values and nothing but whitespace after the object.
// Every body it accepts, encoding/json would decode to the same Request.
func parseRequest(data []byte) (*Request, error) {
	r := strictjson.NewReader(data)
	req := new(Request)
	err := r.Object(requestKeys, func(key string) (err error) {
		switch key {
		case "topo":
			req.Topo, err = r.String()
		case "sched":
			req.Sched, err = r.String()
		case "traffic":
			req.Traffic, err = r.String()
		case "load":
			req.Load, err = r.Float()
		case "duration":
			req.Duration, err = r.Float()
		case "seed":
			req.Seed, err = r.Uint64()
		case "shards":
			req.Shards, err = r.Int()
		case "model":
			req.Model, err = r.String()
		case "timeout_ms":
			req.TimeoutMs, err = r.Int()
		case "fidelity":
			req.Fidelity, err = r.String()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if r.End() != nil {
		return nil, errors.New("request body has trailing data after the JSON object")
	}
	return req, nil
}

// kindFor labels a decode failure's error envelope.
func kindFor(status int) string {
	if status == http.StatusRequestEntityTooLarge {
		return "too_large"
	}
	return "bad_request"
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Metrics.WritePrometheus(w); err != nil {
		return // client disconnected mid-scrape
	}
}

// writeError maps a Submit failure to its HTTP shape.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Kind: "shed"})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Kind: "draining"})
	case errors.Is(err, ErrBreakerOpen):
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Kind: "breaker_open"})
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Kind: "bad_request"})
	case errors.Is(err, analytic.ErrUnstable):
		// The scenario offers some port more than its capacity: a
		// well-formed request with no steady-state answer, not a server
		// fault. Reaches clients from the fast tier.
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Kind: "unstable"})
	case errors.Is(err, guard.ErrDeadline):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error(), Kind: "deadline"})
	case errors.Is(err, guard.ErrCanceled):
		writeJSON(w, StatusClientClosedRequest, errorBody{Error: err.Error(), Kind: "canceled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Kind: "failure"})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readiness is the /readyz payload: overall status plus per-tier
// availability, so an orchestrator can tell "healthy" from "answering
// at reduced fidelity" from "draining".
type readiness struct {
	Status string `json:"status"` // "ready", "degraded", or "draining"
	// Tiers maps each ladder rung to "available" or "breaker-open".
	// The analytic rung is model-free and always available.
	Tiers        map[string]string `json:"tiers"`
	OpenBreakers int               `json:"open_breakers"`
	Brownout     bool              `json:"brownout_enabled"`
}

func (s *Server) readiness() readiness {
	r := readiness{
		Status: "ready",
		Tiers: map[string]string{
			"exact": "available", "analytic": "available",
		},
		OpenBreakers: s.OpenBreakers(),
		Brownout:     s.cfg.Brownout,
	}
	if r.OpenBreakers > 0 {
		// The model-backed tier is impaired for at least one model path;
		// the server still answers, one rung down.
		r.Status = "degraded"
		r.Tiers["exact"] = "breaker-open"
	}
	return r
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r := s.readiness()
	if s.Draining() {
		r.Status = "draining"
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, r)
		return
	}
	writeJSON(w, http.StatusOK, r)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSON writes a JSON response. A failed write means the client is
// gone; there is nothing useful to do with the error.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshaling our own response types cannot fail; degrade to a
		// plain 500 if it somehow does.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, code, data)
}

// writeBody writes an encoded JSON response.
func writeBody(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		return // client disconnected mid-write; response is moot
	}
}
