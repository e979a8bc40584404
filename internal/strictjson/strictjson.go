// Package strictjson is the reader of model files and request bodies:
// the PTM device models and the nn networks inside them, and the
// serving API's POST /simulate bodies. It makes one scan over the bytes,
// uses no reflection and builds no intermediate values; a decoder walks
// its fixed schema with Object, Array, Floats, Float, Int, Uint64 and
// String, then calls End.
//
// It accepts a subset of JSON — everything encoding/json's Marshal
// writes for these documents — and decodes every value it accepts
// exactly as encoding/json does. It is deliberately stricter than
// encoding/json:
//
//   - bytes other than whitespace after the document are rejected;
//   - object keys must match exactly (no case folding), at most once;
//   - keys and string values may not contain escapes;
//   - null is read only in place of an array (as an empty one) or where
//     the decoder asks for it with Null.
//
// A number must match the JSON number grammar; its literal then goes
// straight to strconv.ParseFloat, strconv.Atoi or strconv.ParseUint, the
// conversions encoding/json itself uses, so it decodes to the same bits.
package strictjson

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Reader reads one JSON document from the front. It is not safe for
// concurrent use.
type Reader struct {
	s   string // the whole document, copied once so substrings are free
	pos int    // offset of the next unread byte
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{s: string(data)} }

// errorf reports a syntax or schema error at the current offset.
func (r *Reader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte without consuming it,
// or 0 at the end of the input.
func (r *Reader) peek() byte {
	for r.pos < len(r.s) {
		switch c := r.s[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c after optional whitespace.
func (r *Reader) expect(c byte) error {
	if r.peek() != c {
		return r.errorf("expected %q", c)
	}
	r.pos++
	return nil
}

// list reads the elements of a '['/'{'-delimited list up to its closing
// byte, calling elem once per element.
func (r *Reader) list(open, close byte, elem func() error) error {
	if err := r.expect(open); err != nil {
		return err
	}
	if r.peek() == close {
		r.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch r.peek() {
		case ',':
			r.pos++
		case close:
			r.pos++
			return nil
		default:
			return r.errorf("expected ',' or %q", close)
		}
	}
}

// Null consumes a null literal if one is next and reports whether it did.
func (r *Reader) Null() bool {
	r.peek()
	if strings.HasPrefix(r.s[r.pos:], "null") {
		r.pos += len("null")
		return true
	}
	return false
}

// Object reads an object whose keys are each one of keys (at most 64),
// matched exactly and at most once. For every key it calls field with
// that key, and field must read the value. An error from field is
// returned prefixed with the key.
func (r *Reader) Object(keys []string, field func(key string) error) error {
	var seen uint64
	return r.list('{', '}', func() error {
		name, err := r.rawString()
		if err != nil {
			return err
		}
		i := slices.Index(keys, name)
		if i < 0 {
			return r.errorf("unknown field %q", name)
		}
		if seen&(1<<i) != 0 {
			return r.errorf("duplicate field %q", name)
		}
		seen |= 1 << i
		if err := r.expect(':'); err != nil {
			return err
		}
		if err := field(keys[i]); err != nil {
			return fmt.Errorf("%s: %w", keys[i], err)
		}
		return nil
	})
}

// Array reads an array, calling elem to read each element. null reads as
// an array with no elements.
func (r *Reader) Array(elem func() error) error {
	if r.Null() {
		return nil
	}
	return r.list('[', ']', elem)
}

// Floats reads an array of numbers, appending them to dst. null reads as
// an array with no elements.
func (r *Reader) Floats(dst []float64) ([]float64, error) {
	err := r.Array(func() error {
		v, err := r.Float()
		if err != nil {
			return err
		}
		dst = append(dst, v)
		return nil
	})
	return dst, err
}

// Float reads a number.
func (r *Reader) Float() (float64, error) {
	lit, _, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, r.errorf("number %s out of range", lit)
	}
	return v, nil
}

// Int reads a number with neither a fraction nor an exponent that fits an
// int.
func (r *Reader) Int() (int, error) {
	lit, err := r.integer()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(lit)
	if err != nil {
		return 0, r.errorf("number %s out of range", lit)
	}
	return v, nil
}

// Uint64 reads a number with neither a fraction nor an exponent that fits
// a uint64. A minus sign is out of range, even on zero.
func (r *Reader) Uint64() (uint64, error) {
	lit, err := r.integer()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		return 0, r.errorf("number %s out of range", lit)
	}
	return v, nil
}

// integer scans a number literal with neither a fraction nor an exponent.
func (r *Reader) integer() (string, error) {
	lit, integral, err := r.number()
	if err == nil && !integral {
		err = r.errorf("number %s is not an integer", lit)
	}
	return lit, err
}

// String reads a string with no escapes.
func (r *Reader) String() (string, error) {
	s, err := r.rawString()
	// A copy, so the value does not pin the whole document in memory.
	return strings.Clone(s), err
}

// End reports an error unless only whitespace is left.
func (r *Reader) End() error {
	if r.peek(); r.pos != len(r.s) {
		return r.errorf("unexpected data after the document")
	}
	return nil
}

// rawString reads a string literal and returns its contents as a
// substring of the document. Escapes, control characters and invalid
// UTF-8 are rejected.
func (r *Reader) rawString() (string, error) {
	if err := r.expect('"'); err != nil {
		return "", err
	}
	for i := r.pos; i < len(r.s); i++ {
		switch c := r.s[i]; {
		case c == '"':
			s := r.s[r.pos:i]
			if !utf8.ValidString(s) {
				return "", r.errorf("invalid UTF-8 in string")
			}
			r.pos = i + 1
			return s, nil
		case c == '\\':
			r.pos = i
			return "", r.errorf("escape in string")
		case c < 0x20:
			r.pos = i
			return "", r.errorf("control character in string")
		}
	}
	return "", r.errorf("unterminated string")
}

// number scans one literal of the JSON number grammar
//
//	-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// and reports whether it is integral (no fraction, no exponent).
func (r *Reader) number() (lit string, integral bool, err error) {
	r.peek()
	s, start := r.s, r.pos
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch j := skipDigits(s, i); {
	case j > i && s[i] == '0':
		i++
	case j > i:
		i = j
	default:
		return "", false, r.errorf("expected a number")
	}
	integral = true
	if i < len(s) && s[i] == '.' {
		integral = false
		i++
		j := skipDigits(s, i)
		if j == i {
			r.pos = i
			return "", false, r.errorf("expected a digit after '.'")
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		integral = false
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			r.pos = i
			return "", false, r.errorf("expected a digit in the exponent")
		}
		i = j
	}
	r.pos = i
	return s[start:i], integral, nil
}

// skipDigits returns the offset of the first non-digit of s at or after i.
func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}
