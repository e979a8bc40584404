package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// strictnessSeeds are bodies encoding/json with DisallowUnknownFields
// accepts and parseRequest refuses, one per difference, each with the
// error text the 400 carries.
var strictnessSeeds = []struct{ body, want string }{
	{`{"Topo":"line4"}`, `unknown field "Topo"`},                  // case-folded key
	{`{"topo":"line4","topo":"line8"}`, `duplicate field "topo"`}, // repeated key
	{`{"topo":"line\u0034"}`, "escape in string"},                 // escape in a value
	{`{"t\u006fpo":"line4"}`, "escape in string"},                 // escape in a key
	{`{"topo":"line4","seed":null}`, "expected a number"},         // null value
	{"{\"topo\":\"line4\",\"model\":\"\xff\"}", "invalid UTF-8"},  // invalid UTF-8
	{`null`, "expected '{'"},                                      // null document
}

// decodeReference is the encoding/json reading of a body that parseRequest
// replaced: one value, unknown fields refused, nothing after it.
func decodeReference(body []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data: %w", err)
	}
	return &req, nil
}

// FuzzRequestDecode is the differential oracle for the strict request
// reader: every body parseRequest accepts, the encoding/json reference
// accepts too, into an identical Request (floats compared bit for bit).
func FuzzRequestDecode(f *testing.F) {
	for _, body := range []string{
		// The bodies of http_test.go and lifecycle_test.go.
		`{"topo":"line4"}`,
		`{"topo":"line4","note":"` + strings.Repeat("x", 64) + `"}`,
		`{"topo":"line4"}{"topo":"other"}`,
		`{"topo":"line4"} trailing`,
		`{"topo":"line4"}[]`,
		"{\"topo\":\"line4\"}\n  \n",
		`{"topo":"line4","laod":0.9}`,
		`{"topo":"line4","nosec":true}`,
		`{"topo":`,
		`{"topo":"abilene","load":0.7,"seed":10,"fidelity":"fast"}`,
		`{"topo":"line4","duration":0.0002,"shards":2,"seed":3,"fidelity":"exact"}`,
		`{"topo":"line4","duration":0.0002,"shards":2,"seed":4,"fidelity":""}`,
		`{"topo":"line4","duration":0.0002,"shards":2,"seed":5,"fidelity":"auto"}`,
		`{"topo":"line4","duration":0.0002,"shards":2,"seed":6,"fidelity":"fast"}`,
		// The benchmark's request shape.
		`{"topo":"fattree16","traffic":"map","load":0.4,"duration":0.001,"seed":8093513476012,"shards":1,"fidelity":"fast"}`,
		// Every field, and a seed above 2^63.
		`{"topo":"torus3x3","sched":"wfq:1,2","traffic":"onoff","load":-0,"duration":1e-4,"seed":18446744073709551615,"shards":4,"model":"m.json","timeout_ms":250,"fidelity":"auto"}`,
		` { } `,
	} {
		f.Add([]byte(body))
	}
	for _, s := range strictnessSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseRequest(body)
		if err != nil {
			return
		}
		want, err := decodeReference(body)
		if err != nil {
			t.Fatalf("%q: strict reader accepted %+v, encoding/json refused: %v", body, *got, err)
		}
		if *got != *want || math.Float64bits(got.Load) != math.Float64bits(want.Load) ||
			math.Float64bits(got.Duration) != math.Float64bits(want.Duration) {
			t.Fatalf("%q: strict reader decoded %+v, encoding/json %+v", body, *got, *want)
		}
	})
}

// TestStrictnessSeedsAreReferenceValid keeps strictnessSeeds honest:
// each is a body the reference decoder accepts, so each is a real
// difference and not a body both refuse.
func TestStrictnessSeedsAreReferenceValid(t *testing.T) {
	for _, s := range strictnessSeeds {
		if _, err := decodeReference([]byte(s.body)); err != nil {
			t.Errorf("%q: encoding/json refuses it too (%v)", s.body, err)
		}
		if _, err := parseRequest([]byte(s.body)); err == nil || !strings.Contains(err.Error(), s.want) {
			t.Errorf("%q: strict reader error %v, want one containing %q", s.body, err, s.want)
		}
	}
}

// checkResultEncoding checks one Result against the json.Marshal oracle.
func checkResultEncoding(t *testing.T, res *Result) {
	t.Helper()
	want, werr := json.Marshal(res)
	got, err := appendResult(nil, res)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%+v: append encoder err %v, json.Marshal err %v", res, err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("%+v: append encoder err %q, json.Marshal err %q", res, err, werr)
	case !bytes.Equal(got, want):
		t.Fatalf("%+v:\nappend encoder %s\njson.Marshal   %s", res, got, want)
	}
}

// TestAppendResultMatchesMarshal is the property test of the response
// encoder: byte-identical to json.Marshal for every omitempty field set
// and unset, every field non-zero, strings that need escaping, floats on
// both sides of the 'e'-format thresholds, and random strings and float
// bit patterns; a NaN or infinity is refused with json.Marshal's error.
func TestAppendResultMatchesMarshal(t *testing.T) {
	base := Result{Scenario: "fattree16/fifo/map", Deliveries: 3, Iterations: 2, Bound: 15,
		MeanRTTUs: 12.5, P99RTTUs: 40.25, Mode: "model", Digest: strings.Repeat("ab", 32),
		ElapsedMs: 0.125, Attempts: 1}

	// Every omitempty field, set and unset.
	for mask := 0; mask < 1<<5; mask++ {
		res := base
		if mask&1 != 0 {
			res.Fidelity = "exact"
		}
		if mask&2 != 0 {
			res.BreakerOpen = true
		}
		if mask&4 != 0 {
			res.Degraded = true
		}
		if mask&8 != 0 {
			res.DegradedDevices = -2
		}
		if mask&16 != 0 {
			res.DegradedReason = "breaker open: shard panic"
		}
		checkResultEncoding(t, &res)
	}

	// Every field non-zero, set by reflection: a field added to Result
	// but not to the encoder fails here.
	var full Result
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Result field %s has kind %v the test does not set", v.Type().Field(i).Name, f.Kind())
		}
	}
	checkResultEncoding(t, &full)

	for _, s := range []string{"", `"`, `\`, `a"b\c`, "<>&", "<script>", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\u2028", "\u2029", "x\u2028y\u2029z", "\xff", "a\xc3", "\xed\xa0\x80", "é✓😀",
		"\u00e9\ufffd"} {
		res := base
		res.Scenario, res.DegradedReason, res.Digest = s, s, s
		checkResultEncoding(t, &res)
	}

	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.99999e-7, 1e-7, 1.5e-9,
		5e-324, -5e-324, 1e20, 99999999999999999999, 1e21, -1e21, 1.7976931348623157e308,
		123456.789, 0.1, 1e-10, 2.5e-100} {
		res := base
		res.MeanRTTUs, res.P99RTTUs, res.ElapsedMs = f, -f, f/3
		checkResultEncoding(t, &res)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := base
		res.P99RTTUs = f
		checkResultEncoding(t, &res)
	}

	r := rand.New(rand.NewSource(1))
	const alphabet = "ab\"\\<>&\x00\x1f\x7f\xff\xe2\x80\xa8\xa9é"
	randString := func() string {
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		res := base
		res.Scenario, res.Mode, res.DegradedReason = randString(), randString(), randString()
		res.Deliveries, res.DegradedDevices = r.Int()-r.Int(), r.Intn(3)
		for _, p := range []*float64{&res.MeanRTTUs, &res.P99RTTUs, &res.ElapsedMs} {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				*p = f
			}
		}
		checkResultEncoding(t, &res)
	}
}

// TestNonFiniteResultIs500: a Result json.Marshal cannot encode gets the
// plain 500 writeJSON gives any unencodable body, not a 200 with an
// invalid body.
func TestNonFiniteResultIs500(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &stubRunner{fn: func(context.Context, *Request, RunMode, int) (*Result, error) {
			res := okResult("analytic")
			res.MeanRTTUs = f
			return res, nil
		}}
		s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, r)
		rec := postSimBody(s.Handler(), `{"topo":"line4","fidelity":"fast"}`)
		drainServer(t, s)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Errorf("mean %v: status %d body %q, want 500 naming the unsupported value", f, rec.Code, rec.Body)
		}
	}
}
