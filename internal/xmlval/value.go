// Package xmlval defines the ordered domain of atomic data values V used by
// the XPath fragment of the paper (Sec. 2). The paper fixes V = int or
// V = string; we support both simultaneously: every textual value carries its
// string form and, when it parses as an integer or decimal, a numeric form.
//
// Comparison follows the convention used throughout the paper's examples:
// a predicate with a numeric constant compares numerically (and is false on
// non-numeric text), while a predicate with a string constant compares
// lexicographically on the raw text.
package xmlval

import (
	"bytes"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the two constant domains of the XPath fragment.
type Kind uint8

const (
	// String constants compare lexicographically.
	String Kind = iota
	// Number constants compare numerically.
	Number
)

func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Number:
		return "number"
	default:
		return "kind(?)"
	}
}

// Value is a data value from the stream: the text of a text node or
// attribute. It memoizes whether the text parses as a number.
type Value struct {
	Text    string
	Num     float64
	IsNum   bool
	trimmed string
}

// New builds a Value from raw text. Leading and trailing whitespace is
// ignored for numeric interpretation but preserved in Text. Whitespace here
// is strings.TrimSpace's: Unicode White_Space, which besides XML's four
// space bytes includes \v, \f, U+0085, U+00A0 and U+2000–U+200A.
func New(text string) Value {
	t := strings.TrimSpace(text)
	v := Value{Text: text, trimmed: t}
	if n, ok := parseNum(t); ok {
		v.Num = n
		v.IsNum = true
	}
	return v
}

// NewBytes builds a Value whose string fields are zero-copy views of the
// byte slice. The Value borrows the buffer: it is only valid until the
// caller mutates or recycles the slice, so it must be consumed immediately
// (the machine's per-event predicate evaluation does exactly that). Callers
// that retain the Value must use New(string(text)) instead. It trims as New
// does.
func NewBytes(text []byte) Value {
	t := byteView(bytes.TrimSpace(text))
	v := Value{Text: byteView(text), trimmed: t}
	if n, ok := parseNum(t); ok {
		v.Num = n
		v.IsNum = true
	}
	return v
}

// byteView reinterprets a byte slice as a string without copying. The result
// aliases b's storage and must not outlive it.
func byteView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// FromNumber builds a numeric Value.
func FromNumber(n float64) Value {
	s := strconv.FormatFloat(n, 'g', -1, 64)
	return Value{Text: s, trimmed: s, Num: n, IsNum: true}
}

// Trimmed returns the text with leading and trailing Unicode White_Space
// removed, as New trims it.
func (v Value) Trimmed() string { return v.trimmed }

func parseNum(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	// Fast path rejection: must start with digit, sign, or dot.
	c := s[0]
	if c != '-' && c != '+' && c != '.' && (c < '0' || c > '9') {
		return 0, false
	}
	// strconv.ParseFloat allocates a *NumError on failure, which would put
	// an allocation on the hot path for every non-numeric text node that
	// happens to start with a digit ("3rd", "12-31", ...). Pre-validate
	// with a strict decimal grammar so ParseFloat is only called on input
	// it accepts; inputs using ParseFloat's extended forms (hex floats,
	// digit-separating underscores, inf/nan spellings) are rare and take
	// the fallible call.
	if !isPlainFloat(s) && !maybeSpecialFloat(s) {
		return 0, false
	}
	n, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// isPlainFloat reports whether s matches [+-]?digits[.digits][(e|E)[+-]digits]
// with at least one mantissa digit — a subset of what strconv.ParseFloat
// accepts, so ParseFloat cannot fail on it except for range errors.
func isPlainFloat(s string) bool {
	i := 0
	if s[i] == '+' || s[i] == '-' {
		i++
	}
	mantissa := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		mantissa++
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			mantissa++
		}
	}
	if mantissa == 0 {
		return false
	}
	if i == len(s) {
		return true
	}
	if s[i] != 'e' && s[i] != 'E' {
		return false
	}
	i++
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	exp := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		exp++
	}
	return exp > 0 && i == len(s)
}

// maybeSpecialFloat reports whether s could be one of ParseFloat's extended
// forms that isPlainFloat rejects: hex floats (0x1p-2), underscore digit
// separators (1_000), or inf/nan spellings (+inf, -Infinity, nan).
func maybeSpecialFloat(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'x', 'X', '_', 'i', 'I', 'n', 'N':
			return true
		}
	}
	return false
}

// Const is a typed constant appearing in an atomic predicate.
type Const struct {
	Kind Kind
	Str  string
	Num  float64
}

// StringConst returns a string-typed constant.
func StringConst(s string) Const { return Const{Kind: String, Str: s} }

// NumberConst returns a number-typed constant.
func NumberConst(n float64) Const { return Const{Kind: Number, Num: n} }

// String renders the constant as it would appear in an XPath expression.
// String literals use double quotes; embedded double quotes are doubled
// (XPath 2.0-style escaping, which this library's parser accepts — XPath 1.0
// has no escape mechanism at all).
func (c Const) String() string {
	if c.Kind == Number {
		return strconv.FormatFloat(c.Num, 'g', -1, 64)
	}
	return `"` + strings.ReplaceAll(c.Str, `"`, `""`) + `"`
}

// Compare orders a stream value against a constant. It reports -1, 0 or +1
// when the value is comparable with the constant, and ok=false when it is not
// (a non-numeric value against a numeric constant).
func Compare(v Value, c Const) (cmp int, ok bool) {
	switch c.Kind {
	case Number:
		if !v.IsNum {
			return 0, false
		}
		switch {
		case v.Num < c.Num:
			return -1, true
		case v.Num > c.Num:
			return +1, true
		default:
			return 0, true
		}
	default:
		return strings.Compare(v.trimmed, c.Str), true
	}
}

// Op is a relational comparison operator of the XPath fragment (Fig. 1).
type Op uint8

const (
	OpEq Op = iota // =
	OpNe           // !=
	OpLt           // <
	OpLe           // <=
	OpGt           // >
	OpGe           // >=
	// OpExists is the implicit "true" predicate the paper assumes for
	// filters without an explicit comparison ("If the query does not have
	// a predicate, then we assume a true predicate").
	OpExists
	// OpContains and OpStartsWith are the string-function extension the
	// paper sketches via the Aho–Corasick dictionary index (Sec. 2).
	OpContains
	OpStartsWith
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpExists:
		return "exists"
	case OpContains:
		return "contains"
	case OpStartsWith:
		return "starts-with"
	default:
		return "op(?)"
	}
}

// Negate returns the complementary relational operator, when one exists in
// the fragment. Used by workload analysis, not by evaluation.
func (o Op) Negate() (Op, bool) {
	switch o {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpGe:
		return OpLt, true
	case OpGt:
		return OpLe, true
	case OpLe:
		return OpGt, true
	default:
		return o, false
	}
}

// Eval applies the operator to a stream value and a constant, implementing
// the atomic predicate semantics π_s(v) of Sec. 3.
func Eval(op Op, v Value, c Const) bool {
	switch op {
	case OpExists:
		return true
	case OpContains:
		return strings.Contains(v.trimmed, c.Str)
	case OpStartsWith:
		return strings.HasPrefix(v.trimmed, c.Str)
	}
	cmp, ok := Compare(v, c)
	if !ok {
		// Incomparable (non-numeric text against a numeric constant):
		// no relational predicate holds, != included. This keeps the
		// satisfied-predicate set a pure function of the value's
		// position in the ordered domain, which the interval-partition
		// predicate index relies on.
		return false
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}
