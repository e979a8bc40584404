package strictjson

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestFloatsMatchEncodingJSON compares number arrays against encoding/json:
// every literal the reader accepts decodes to the same bits, and every
// literal it rejects encoding/json rejects too.
func TestFloatsMatchEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "1", "-1", "1.5", "-0.25", "1e5", "1E+5", "1e-5", "2.5E-3",
		"0.1", "0.30000000000000004", "4.9e-324", "1e-400", "1.7976931348623157e308",
		"2.2250738585072014e-308", "123456789012345678901234567890",
		// Rejected by both.
		"01", "-01", "00", "1.", ".5", "1e", "1e+", "+1", "-", "1e999", "-1e999",
		"0x10", "Inf", "NaN", "1_000", "1.e5", "--1", `"1"`, "true",
	} {
		doc := "[" + lit + "]"
		var want []float64
		werr := json.Unmarshal([]byte(doc), &want)
		r := NewReader([]byte(doc))
		got, err := r.Floats(nil)
		if err == nil {
			err = r.End()
		}
		switch {
		case (err == nil) != (werr == nil):
			t.Errorf("%s: strict err %v, encoding/json err %v", lit, err, werr)
		case err == nil && math.Float64bits(got[0]) != math.Float64bits(want[0]):
			t.Errorf("%s: strict %v, encoding/json %v", lit, got[0], want[0])
		}
	}
}

func TestInt(t *testing.T) {
	for lit, want := range map[string]int{"0": 0, "-0": 0, "42": 42, "-7": -7,
		"9223372036854775807": math.MaxInt64} {
		v, err := NewReader([]byte(lit)).Int()
		if err != nil || v != want {
			t.Errorf("%s: got %d, %v", lit, v, err)
		}
	}
	// encoding/json rejects all of these for an int field as well.
	for _, lit := range []string{"1.0", "1e2", "9223372036854775808", "-", "x"} {
		if v, err := NewReader([]byte(lit)).Int(); err == nil {
			t.Errorf("%s: accepted as %d", lit, v)
		}
	}
}

// TestUint64MatchesEncodingJSON compares uint64 literals against
// encoding/json: every literal the reader accepts decodes to the same
// value, and every literal it rejects encoding/json rejects too.
func TestUint64MatchesEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		"0", "1", "42", "9223372036854775808", "18446744073709551615",
		// Rejected by both.
		"-0", "-1", "18446744073709551616", "1.0", "1e2", "01", "+1", `"1"`, "true",
	} {
		var want uint64
		werr := json.Unmarshal([]byte(lit), &want)
		r := NewReader([]byte(lit))
		got, err := r.Uint64()
		if err == nil {
			err = r.End()
		}
		switch {
		case (err == nil) != (werr == nil):
			t.Errorf("%s: strict err %v, encoding/json err %v", lit, err, werr)
		case err == nil && got != want:
			t.Errorf("%s: strict %d, encoding/json %d", lit, got, want)
		}
	}
}

// readPoint decodes {"x":<int>,"name":<string>} for the object tests.
func readPoint(doc string) (x int, name string, err error) {
	r := NewReader([]byte(doc))
	err = r.Object([]string{"x", "name"}, func(key string) (err error) {
		if key == "x" {
			x, err = r.Int()
		} else {
			name, err = r.String()
		}
		return err
	})
	if err == nil {
		err = r.End()
	}
	return x, name, err
}

func TestObject(t *testing.T) {
	x, name, err := readPoint(" { \"name\" : \"é p\" ,\n\t\"x\":3 }\r\n")
	if err != nil || x != 3 || name != "é p" {
		t.Fatalf("got %d %q %v", x, name, err)
	}
	if _, _, err := readPoint(`{}`); err != nil {
		t.Fatalf("empty object: %v", err)
	}
	for doc, want := range map[string]string{
		`{"x":1,"y":2}`:       "unknown field",
		`{"X":1}`:             "unknown field",
		`{"x":1,"x":2}`:       "duplicate field",
		`{"\u0078":1}`:        "escape",
		`{"name":"a\"b"}`:     "escape",
		"{\"name\":\"a\tb\"}": "control character",
		"{\"name\":\"\xff\"}": "invalid UTF-8",
		`{"name":"ab`:         "unterminated",
		`{"x":1,}`:            `expected '"'`,
		`{"x":1 "name":""}`:   "expected ','",
		`{"x":1}{`:            "after the document",
		`{"x":1} x`:           "after the document",
		"{\"x\":1}\x00":       "after the document",
		`{"x":null}`:          "expected a number",
		`{"x":"1"}`:           "expected a number",
		`{"name":1}`:          `expected '"'`,
		`null`:                "expected '{'",
		``:                    "expected '{'",
	} {
		_, _, err := readPoint(doc)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", doc, err, want)
		}
	}
	if _, _, err := readPoint(`{"x":1.5}`); err == nil || !strings.HasPrefix(err.Error(), "x: offset") {
		t.Errorf("a field's error must carry its key: %v", err)
	}
}

func TestArrays(t *testing.T) {
	for doc, want := range map[string]int{`null`: 0, `[]`: 0, ` [ 1 , 2 ] `: 2} {
		r := NewReader([]byte(doc))
		got, err := r.Floats(nil)
		if err == nil {
			err = r.End()
		}
		if err != nil || len(got) != want {
			t.Errorf("%q: %v, %v", doc, got, err)
		}
	}
	for _, doc := range []string{`[1,]`, `[,1]`, `[1 2]`, `[1`, `{}`, `nul`} {
		if got, err := NewReader([]byte(doc)).Floats(nil); err == nil {
			t.Errorf("%q: accepted as %v", doc, got)
		}
	}
	var rows [][]float64
	r := NewReader([]byte(`[[1],null,[2,3]]`))
	err := r.Array(func() error {
		row, err := r.Floats(nil)
		rows = append(rows, row)
		return err
	})
	if err != nil || len(rows) != 3 || len(rows[1]) != 0 || rows[2][1] != 3 {
		t.Fatalf("nested arrays: %v, %v", rows, err)
	}
}
