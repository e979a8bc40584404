package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendResult appends res encoded exactly as json.Marshal encodes it —
// same field order, omitempty rules, string escaping and float format —
// in one pass with no reflection. Like json.Marshal it refuses a NaN or
// infinite statistic with a *json.UnsupportedValueError. Every field of
// Result must appear here; TestAppendResultMatchesMarshal fails on one
// that does not.
func appendResult(b []byte, res *Result) ([]byte, error) {
	for _, f := range [...]float64{res.MeanRTTUs, res.P99RTTUs, res.ElapsedMs} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	b = append(b, `{"scenario":`...)
	b = appendJSONString(b, res.Scenario)
	b = append(b, `,"deliveries":`...)
	b = strconv.AppendInt(b, int64(res.Deliveries), 10)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(res.Iterations), 10)
	b = append(b, `,"bound":`...)
	b = strconv.AppendInt(b, int64(res.Bound), 10)
	b = append(b, `,"mean_rtt_us":`...)
	b = appendJSONFloat(b, res.MeanRTTUs)
	b = append(b, `,"p99_rtt_us":`...)
	b = appendJSONFloat(b, res.P99RTTUs)
	b = append(b, `,"mode":`...)
	b = appendJSONString(b, res.Mode)
	if res.Fidelity != "" {
		b = append(b, `,"fidelity":`...)
		b = appendJSONString(b, res.Fidelity)
	}
	if res.BreakerOpen {
		b = append(b, `,"breaker_open":true`...)
	}
	if res.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if res.DegradedDevices != 0 {
		b = append(b, `,"degraded_devices":`...)
		b = strconv.AppendInt(b, int64(res.DegradedDevices), 10)
	}
	if res.DegradedReason != "" {
		b = append(b, `,"degraded_reason":`...)
		b = appendJSONString(b, res.DegradedReason)
	}
	b = append(b, `,"digest":`...)
	b = appendJSONString(b, res.Digest)
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, res.ElapsedMs)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(res.Attempts), 10)
	return append(b, '}'), nil
}

// appendJSONFloat appends a finite float64 in encoding/json's format: the
// shortest 'f' form, or 'e' form below 1e-6 and from 1e21 on in
// magnitude, with a one-digit negative exponent unpadded (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as json.Marshal quotes it: '"' and
// '\' backslash-escaped, \b \f \n \r \t short forms, other control bytes
// and the HTML-sensitive <, > and & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
