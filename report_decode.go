package firmres

// The cache payload's decoder. A cache entry holds json.Marshal of a
// Report, and a warm hit decodes it; encoding/json spends most of that
// decode validating the payload in a separate pass and growing slices by
// reflection. This decoder reads exactly what json.Marshal writes for a
// Report in one pass, with no reflection: each struct's fields in
// declaration order, an omitempty field optional, no whitespace, nothing
// after the report. Every slice and map is sized from its element count,
// up to a cap, before it is filled, and no string aliases the payload, so a
// decoded report never aliases the buffer the cache lent it: an enumerated
// field (a semantic label, a source kind, a verdict, a lint rule, a probe
// class, an error kind, a stage name...) gets the code's own string for its
// value, and every other string is copied out.
//
// Strings and numbers follow encoding/json's grammar, escapes included. A
// null gives a nil slice, map or pointer, and [] or {} an empty, non-nil
// one, as json.Unmarshal does. Anything else is an error: unknown,
// missing, repeated or out-of-order fields, whitespace, trailing bytes,
// invalid UTF-8, a number that overflows its field. Whatever this decoder
// accepts, json.Unmarshal accepts with the same result
// (TestDecodeReportMatchesJSON and FuzzDecodeReport hold it to that).
// Encoding stays on encoding/json.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"firmres/internal/cloud"
	"firmres/internal/errdefs"
	"firmres/internal/externs"
	"firmres/internal/fields"
	"firmres/internal/formcheck"
	"firmres/internal/lint"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

// enumStrings maps every value of an enumerated report field to the code's
// own string for it, built from the code's lists, so a decoded report's
// enumerated fields share storage with the constants they came from
// instead of each holding a copy. They are half of a report's strings.
var enumStrings = func() map[string]string {
	vals := append([]string{verdictDiscarded, ProbeGranted, ProbeDenied, ProbeInvalid, ProbeFailed,
		cloud.RespOK, cloud.RespNoPermission, cloud.RespAccessDenied,
		cloud.RespBadRequest, cloud.RespNotSupported, cloud.RespPathNotExist},
		semantics.Labels...)
	for k := taint.LeafString; k <= taint.LeafUnknown; k++ {
		vals = append(vals, k.String())
	}
	for f := fields.FormatRaw; f <= fields.FormatHTTP; f++ {
		vals = append(vals, f.String())
	}
	for v := formcheck.FormOK; v <= formcheck.FormNoPrimitives; v++ {
		vals = append(vals, v.String())
	}
	for s := lint.SevInfo; s <= lint.SevError; s++ {
		vals = append(vals, s.String())
	}
	vals = append(vals, lint.Rules()...)
	vals = append(vals, errdefs.Kinds()...)
	vals = append(vals, StageNames()...)
	vals = append(vals, externs.ByRole(externs.RoleDeliver)...)
	m := make(map[string]string, len(vals))
	for _, v := range vals {
		if _, dup := m[v]; !dup {
			m[v] = v
		}
	}
	return m
}()

// unmarshalReport decodes the json.Marshal encoding of a Report into r.
func unmarshalReport(b []byte, r *Report) error {
	d := dec{b: b}
	d.report(r)
	if d.err == nil && d.i < len(b) {
		d.fail("trailing bytes")
	}
	return d.err
}

// dec is one decode pass. The first error sticks: no read after it
// consumes anything, and what was decoded is thrown away.
type dec struct {
	b   []byte
	i   int
	err error
	buf []byte // scratch for unescaping strings
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", what, d.i)
	}
}

// peek returns the next byte, or 0 at the end of the input or after an
// error.
func (d *dec) peek() byte {
	if d.err != nil || d.i >= len(d.b) {
		return 0
	}
	return d.b[d.i]
}

// skip consumes c if it comes next.
func (d *dec) skip(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

func (d *dec) expect(c byte) {
	if !d.skip(c) {
		d.fail(fmt.Sprintf("expected %q", c))
	}
}

// lit consumes the literal s if it comes next.
func (d *dec) lit(s string) bool {
	if d.err != nil || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// more reports whether another element follows in the array or object
// closed by end, n of whose elements have been read; it consumes the comma
// before the element, or end.
func (d *dec) more(end byte, n int) bool {
	switch c := d.peek(); {
	case c == end:
		d.i++
		return false
	case n == 0 && c != 0:
		return true
	case n > 0 && c == ',':
		d.i++
		return true
	}
	d.fail(fmt.Sprintf("expected ',' or %q", end))
	return false
}

// maxPresize caps the element count count returns. count reads commas
// before the decode checks the grammar, so without a cap a malformed entry
// makes one decode allocate a slot for every comma it holds; a longer list
// grows by append. The longest list in a corpus report has 53 elements.
const maxPresize = 256

// count returns the number of elements of the array or object that opens
// at d.i, up to maxPresize, so what holds them is allocated once. It only
// skips strings and matches brackets; the decode that follows checks the
// grammar.
func (d *dec) count() int {
	n, depth := 0, 0
	for i := d.i; i < len(d.b); i++ {
		switch d.b[i] {
		case '"':
			for i++; i < len(d.b) && d.b[i] != '"'; i++ {
				if d.b[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				if i == d.i+1 {
					return 0
				}
				return n + 1
			}
		case ',':
			if depth == 1 {
				if n++; n == maxPresize {
					return n
				}
			}
		}
	}
	return 0
}

// str reads a string into p, copied out of the input.
func (d *dec) str(p *string) { d.string(p, false) }

// enum reads the string of an enumerated field into p: the code's own
// string for it when enumStrings holds one, and a copy otherwise.
func (d *dec) enum(p *string) { d.string(p, true) }

func (d *dec) string(p *string, enum bool) {
	if !d.skip('"') {
		d.fail("expected a string")
		return
	}
	start, from := d.i, d.i // from: the first byte not yet copied to buf
	buf := d.buf[:0]
	for d.err == nil {
		if d.i >= len(d.b) {
			d.fail("unterminated string")
			return
		}
		switch c := d.b[d.i]; {
		case c == '"':
			switch raw := d.b[start:d.i]; {
			case from != start:
				d.buf = append(buf, d.b[from:d.i]...)
				*p = string(d.buf)
			case enum:
				if s, ok := enumStrings[string(raw)]; ok {
					*p = s
				} else {
					*p = string(raw)
				}
			default:
				*p = string(raw)
			}
			d.i++
			return
		case c == '\\':
			buf = d.escape(append(buf, d.b[from:d.i]...))
			from = d.i
		case c < 0x20:
			d.fail("control byte in string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, n := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && n == 1 {
				d.fail("invalid UTF-8 in string")
			}
			d.i += n
		}
	}
}

// escape appends the character the escape at d.i stands for to buf. As in
// encoding/json, a \u escape of a lone surrogate stands for U+FFFD.
func (d *dec) escape(buf []byte) []byte {
	if d.i+1 < len(d.b) {
		if k := strings.IndexByte(`"\/bfnrt`, d.b[d.i+1]); k >= 0 {
			d.i += 2
			return append(buf, "\"\\/\b\f\n\r\t"[k])
		}
	}
	r := d.u4(d.i)
	if r < 0 {
		d.fail("malformed escape")
		return buf
	}
	d.i += 6
	if utf16.IsSurrogate(r) {
		if pair := utf16.DecodeRune(r, d.u4(d.i)); pair != unicode.ReplacementChar {
			d.i += 6
			return utf8.AppendRune(buf, pair)
		}
		r = unicode.ReplacementChar
	}
	return utf8.AppendRune(buf, r)
}

// u4 returns the UTF-16 code unit of the \uXXXX escape at b[i:], or -1.
func (d *dec) u4(i int) rune {
	if i+6 > len(d.b) || d.b[i] != '\\' || d.b[i+1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(d.b[i+2:i+6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number consumes a number and returns its text, in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *dec) number() []byte {
	start := d.i
	d.skip('-')
	ok := d.skip('0') || d.digits()
	if ok && d.skip('.') {
		ok = d.digits()
	}
	if ok && (d.skip('e') || d.skip('E')) {
		_ = d.skip('+') || d.skip('-')
		ok = d.digits()
	}
	if !ok {
		d.fail("malformed number")
		return nil
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and reports whether it was not
// empty.
func (d *dec) digits() bool {
	start := d.i
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.i++
	}
	return d.i > start
}

// integer reads an integer that fits in bits bits.
func (d *dec) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.fail("integer out of range or malformed")
	}
	return n
}

// obj reads one object's fields in declaration order.
type obj struct {
	d *dec
	n int // fields read
}

func (d *dec) object() obj {
	d.expect('{')
	return obj{d: d}
}

// key consumes the next field's name, and the comma before it, when it is
// name. A name ending in ",omitempty", as in a struct tag, marks a field
// that may be absent; any other field out of its place is an error.
func (o *obj) key(name string) bool {
	d := o.d
	name, optional := strings.CutSuffix(name, ",omitempty")
	i := d.i + min(o.n, 1) // past the comma, checked below
	j := i + len(name) + 3 // past `"name":`
	if d.err == nil && j <= len(d.b) && (o.n == 0 || d.b[d.i] == ',') &&
		d.b[i] == '"' && string(d.b[i+1:j-2]) == name && d.b[j-2] == '"' && d.b[j-1] == ':' {
		d.i = j
		o.n++
		return true
	}
	if !optional {
		d.fail("expected field " + strconv.Quote(name))
	}
	return false
}

func (o *obj) end() { o.d.expect('}') }

func (o *obj) str(name string, p *string) {
	if o.key(name) {
		o.d.str(p)
	}
}

func (o *obj) enum(name string, p *string) {
	if o.key(name) {
		o.d.enum(p)
	}
}

func (o *obj) bool(name string, p *bool) {
	switch {
	case !o.key(name):
	case o.d.lit("true"):
		*p = true
	case o.d.lit("false"):
		*p = false
	default:
		o.d.fail("expected a boolean")
	}
}

func (o *obj) int(name string, p *int) {
	if o.key(name) {
		*p = int(o.d.integer(strconv.IntSize))
	}
}

func (o *obj) uint64(name string, p *uint64) {
	if o.key(name) {
		n, err := strconv.ParseUint(string(o.d.number()), 10, 64)
		if err != nil {
			o.d.fail("unsigned integer out of range or malformed")
		}
		*p = n
	}
}

func (o *obj) float(name string, p *float64) {
	if o.key(name) {
		f, err := strconv.ParseFloat(string(o.d.number()), 64)
		if err != nil {
			o.d.fail("number out of range or malformed")
		}
		*p = f
	}
}

// Fields holding slices, maps and pointers. Methods take no type
// parameters, so these are functions.

func list[T any](o *obj, name string, p *[]T, elem func(*dec, *T)) {
	d := o.d
	if !o.key(name) || d.lit("null") {
		return
	}
	s := make([]T, 0, d.count())
	d.expect('[')
	for d.more(']', len(s)) {
		s = append(s, *new(T))
		elem(d, &s[len(s)-1])
	}
	*p = s
}

func dict[V int | int64](o *obj, name string, p *map[string]V) {
	d := o.d
	if !o.key(name) || d.lit("null") {
		return
	}
	m := make(map[string]V, d.count())
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		var k string
		d.enum(&k)
		d.expect(':')
		v := d.integer(64)
		if int64(V(v)) != v {
			d.fail("integer out of range")
		}
		m[k] = V(v)
	}
	*p = m
}

func ptr[T any](o *obj, name string, p **T, val func(*dec, *T)) {
	if o.key(name) && !o.d.lit("null") {
		*p = new(T)
		val(o.d, *p)
	}
}

func (d *dec) report(r *Report) {
	o := d.object()
	o.str("Device", &r.Device)
	o.str("Version", &r.Version)
	o.str("Executable", &r.Executable)
	list(&o, "Messages", &r.Messages, (*dec).message)
	dict(&o, "ClusterCounts", &r.ClusterCounts)
	dict(&o, "Metrics,omitempty", &r.Metrics)
	list(&o, "Diagnostics,omitempty", &r.Diagnostics, (*dec).diagnostic)
	list(&o, "Errors,omitempty", &r.Errors, (*dec).analysisError)
	ptr(&o, "Probe,omitempty", &r.Probe, (*dec).probeReport)
	ptr(&o, "Recovery,omitempty", &r.Recovery, (*dec).recoveryReport)
	o.end()
}

func (d *dec) message(m *Message) {
	o := d.object()
	o.str("Function", &m.Function)
	o.str("Context", &m.Context)
	o.enum("Deliver", &m.Deliver)
	o.enum("Format", &m.Format)
	o.str("Topic", &m.Topic)
	o.str("Path", &m.Path)
	o.str("Body", &m.Body)
	list(&o, "Fields", &m.Fields, (*dec).field)
	o.bool("Discarded", &m.Discarded)
	o.bool("Flagged", &m.Flagged)
	o.enum("Verdict", &m.Verdict)
	o.str("Detail", &m.Detail)
	o.end()
}

func (d *dec) field(f *Field) {
	o := d.object()
	o.str("Key", &f.Key)
	o.enum("Semantics", &f.Semantics)
	o.float("Confidence", &f.Confidence)
	o.enum("Source", &f.Source)
	o.str("SourceKey", &f.SourceKey)
	o.str("Value", &f.Value)
	o.end()
}

func (d *dec) diagnostic(g *Diagnostic) {
	o := d.object()
	o.enum("Rule", &g.Rule)
	o.enum("Severity", &g.Severity)
	o.str("Executable", &g.Executable)
	o.str("Function", &g.Function)
	o.uint64("Addr", &g.Addr)
	o.str("Message", &g.Message)
	list(&o, "Evidence,omitempty", &g.Evidence, (*dec).str)
	o.end()
}

func (d *dec) analysisError(e *AnalysisError) {
	o := d.object()
	o.enum("stage", &e.Stage)
	o.str("path,omitempty", &e.Path)
	o.enum("kind", &e.Kind)
	o.str("detail", &e.Detail)
	o.end()
}

func (d *dec) probeReport(p *ProbeReport) {
	o := d.object()
	o.int("Probed", &p.Probed)
	o.int("Vulnerable", &p.Vulnerable)
	dict(&o, "Counts", &p.Counts)
	list(&o, "Outcomes", &p.Outcomes, (*dec).probeOutcome)
	o.end()
}

func (d *dec) probeOutcome(p *ProbeOutcome) {
	o := d.object()
	o.str("Function", &p.Function)
	o.str("Context,omitempty", &p.Context)
	o.enum("Transport", &p.Transport)
	o.str("Route,omitempty", &p.Route)
	o.enum("Classification", &p.Classification)
	ptr(&o, "Validity,omitempty", &p.Validity, (*dec).probeAttempt)
	ptr(&o, "Attack,omitempty", &p.Attack, (*dec).probeAttempt)
	o.bool("Vulnerable,omitempty", &p.Vulnerable)
	list(&o, "Leaks,omitempty", &p.Leaks, (*dec).str)
	o.enum("ErrorKind,omitempty", &p.ErrorKind)
	o.end()
}

func (d *dec) probeAttempt(a *ProbeAttempt) {
	o := d.object()
	o.enum("Class", &a.Class)
	o.int("Status,omitempty", &a.Status)
	o.bool("Valid", &a.Valid)
	o.bool("Granted", &a.Granted)
	o.end()
}

func (d *dec) recoveryReport(r *RecoveryReport) {
	o := d.object()
	o.str("binary", &r.Binary)
	o.int("funcs_recovered", &r.FuncsRecovered)
	o.int("strings_recovered", &r.StringsRecovered)
	o.int("externs_total", &r.ExternsTotal)
	o.int("externs_bound", &r.ExternsBound)
	list(&o, "bindings,omitempty", &r.Bindings, (*dec).recoveryBinding)
	dict(&o, "confidence,omitempty", &r.Confidence)
	list(&o, "notes,omitempty", &r.Notes, (*dec).str)
	o.end()
}

func (d *dec) recoveryBinding(b *RecoveryBinding) {
	o := d.object()
	o.int("import", &b.Import)
	o.str("name,omitempty", &b.Name)
	o.int("arity", &b.Arity)
	o.int("sites", &b.Sites)
	o.float("confidence", &b.Confidence)
	o.str("evidence,omitempty", &b.Evidence)
	o.end()
}
