package firmres

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"firmres/internal/errdefs"
	"firmres/internal/externs"
	"firmres/internal/fields"
	"firmres/internal/formcheck"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

// payload is one input of the decoder tests: json.Marshal of a Report.
type payload struct {
	name string
	js   []byte
}

// goldenPayloads returns the cache payloads of the golden reports: devices
// 1-20 symbol-full, then stripped, then each probe golden's ProbeReport
// placed in a Report.
func goldenPayloads(t testing.TB) []payload {
	t.Helper()
	var out []payload
	add := func(name string, r *Report) {
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, payload{name, js})
	}
	read := func(path string, rec any) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, path := range []func(int) string{goldenPath, strippedGoldenPath} {
		for id := 1; id <= 20; id++ {
			var rec goldenRecord
			read(path(id), &rec)
			add(path(id), rec.Report)
		}
	}
	for id := 1; id <= 20; id++ {
		var rec probeGoldenRecord
		read(probeGoldenPath(id), &rec)
		add(probeGoldenPath(id), &Report{Device: fmt.Sprint(id), Probe: rec.Probe})
	}
	return out
}

// reportGen fills every field json.Marshal writes, of every type under
// Report, by walking the type graph: a field added to any of them is
// filled too, and fails TestDecodeReportMatchesJSON until the decoder
// reads it.
type reportGen struct {
	t       testing.TB
	rng     *rand.Rand
	invalid bool // this report's strings may hold an invalid byte
}

// stringParts are what generated strings are built from: every byte
// json.Marshal escapes, and a multi-byte rune.
var stringParts = func() []string {
	parts := []string{`"`, `\`, "<>&", "\u2028", "\u2029", "\u65e5", "mac=", "/v1/", " ", "\x7f"}
	for c := 0; c < 0x20; c++ {
		parts = append(parts, string(rune(c)))
	}
	return parts
}()

// string draws a string from stringParts. In a report drawn with invalid
// set, one string in eight also ends in an invalid byte, which json.Marshal
// rewrites as \ufffd.
func (g *reportGen) string() string {
	var sb strings.Builder
	for n := g.rng.Intn(5); n > 0; n-- {
		sb.WriteString(stringParts[g.rng.Intn(len(stringParts))])
	}
	if g.invalid && g.rng.Intn(8) == 0 {
		sb.WriteByte(0xff)
	}
	return sb.String()
}

// length picks nil (-1), empty or a few elements.
func (g *reportGen) length() int { return g.rng.Intn(4) - 1 }

func (g *reportGen) fill(v reflect.Value) {
	rng := g.rng
	switch v.Kind() {
	case reflect.String:
		v.SetString(g.string())
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int63n(2000) - 1000}
		v.SetInt(ints[rng.Intn(len(ints))])
	case reflect.Uint64:
		uints := []uint64{0, 1, math.MaxUint64, rng.Uint64()}
		v.SetUint(uints[rng.Intn(len(uints))])
	case reflect.Float64:
		floats := []float64{0, 1, -0.5, 1e-07, 1e+21, 0.9545454545454546, math.MaxFloat64,
			math.SmallestNonzeroFloat64, rng.NormFloat64()}
		v.SetFloat(floats[rng.Intn(len(floats))])
	case reflect.Slice:
		if n := g.length(); n >= 0 {
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				g.fill(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		if n := g.length(); n >= 0 {
			m := reflect.MakeMapWithSize(v.Type(), n)
			for i := 0; i < n; i++ {
				val := reflect.New(v.Type().Elem()).Elem()
				g.fill(val)
				m.SetMapIndex(reflect.ValueOf(g.string()), val)
			}
			v.Set(m)
		}
	case reflect.Pointer:
		if rng.Intn(2) == 1 {
			p := reflect.New(v.Type().Elem())
			g.fill(p.Elem())
			v.Set(p)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				g.fill(v.Field(i))
			}
		}
	default:
		g.t.Fatalf("report generator: no values for a %s", v.Type())
	}
}

// report generates one Report. Half the reports may hold invalid UTF-8,
// and half the errors carry a taxonomy kind, so rehydration has a sentinel
// to unwrap to.
func (g *reportGen) report() *Report {
	g.invalid = g.rng.Intn(2) == 0
	r := new(Report)
	g.fill(reflect.ValueOf(r).Elem())
	kinds := []error{ErrNoDeviceCloudExecutable, ErrCorruptImage, ErrStageTimeout, ErrStagePanic, ErrExecutableSkipped}
	for i := range r.Errors {
		if g.rng.Intn(2) == 0 {
			r.Errors[i].Kind = errdefs.Kind(kinds[g.rng.Intn(len(kinds))])
		}
	}
	return r
}

// generatedPayloads returns n payloads from a generator seeded with seed.
func generatedPayloads(t testing.TB, seed int64, n int) []payload {
	g := &reportGen{t: t, rng: rand.New(rand.NewSource(seed))}
	out := make([]payload, n)
	for i := range out {
		js, err := json.Marshal(g.report())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = payload{fmt.Sprintf("generated #%d", i), js}
	}
	return out
}

// matchJSON checks a report decodeReport returned from js against
// json.Unmarshal of the same bytes: deep-equal with every nil and empty
// value in place, and each error's cause rehydrated from its kind.
func matchJSON(t *testing.T, name string, js []byte, got *Report) {
	t.Helper()
	var want Report
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatalf("%s: decoder accepted what json.Unmarshal rejects (%v)", name, err)
	}
	for i := range got.Errors {
		e := &got.Errors[i]
		s := errdefs.Sentinel(e.Kind)
		if e.Err == nil || errors.Unwrap(e.Err) != s || s != nil && !errors.Is(e.Err, s) {
			t.Errorf("%s: error %d of kind %q rehydrated as %#v", name, i, e.Kind, e.Err)
		} else if e.Err.Error() != e.Detail {
			t.Errorf("%s: error %d renders %q, want its detail %q", name, i, e.Err.Error(), e.Detail)
		}
		want.Errors[i].Err = e.Err
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: decoder and json.Unmarshal disagree:\n got %+v\nwant %+v", name, got, &want)
	}
}

// TestDecodeReportMatchesJSON holds the one-pass decoder to json.Unmarshal
// over the golden payloads, a report with a rehydrated error, and 500
// generated reports. Each is decoded from a copy of its payload that is
// then overwritten, so a decoded string that aliased its input shows, and
// must re-marshal to its payload byte for byte. The one exception is a
// payload with a \ufffd escape: json.Marshal writes it only for invalid
// UTF-8, which no decode gives back. Every proper prefix of the smallest
// symbol-full and stripped payloads must fail to decode.
func TestDecodeReportMatchesJSON(t *testing.T) {
	goldens := goldenPayloads(t)
	timeout, err := json.Marshal(&Report{Device: "d", Errors: []AnalysisError{{
		Stage:  "identify-fields",
		Kind:   "stage-timeout",
		Detail: "analysis stopped: the caller's context ended: context deadline exceeded",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(goldens, payload{"stage-timeout error", timeout})
	inputs = append(inputs, generatedPayloads(t, 1, 500)...)
	for _, in := range inputs {
		buf := append([]byte(nil), in.js...)
		got, err := decodeReport(buf)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		matchJSON(t, in.name, in.js, got)
		if bytes.Contains(in.js, []byte(`\ufffd`)) {
			continue
		}
		if re, err := json.Marshal(got); err != nil || !bytes.Equal(re, in.js) {
			t.Errorf("%s: decoded report re-marshals differently (%v)", in.name, err)
		}
	}

	for _, set := range [][]payload{goldens[:20], goldens[20:40]} {
		small := set[0]
		for _, p := range set {
			if len(p.js) < len(small.js) {
				small = p
			}
		}
		for n := range small.js {
			if _, err := decodeReport(small.js[:n]); err == nil {
				t.Fatalf("%s: the %d-byte prefix decoded", small.name, n)
			}
		}
	}
}

// FuzzDecodeReport: the decoder never panics, and whatever it accepts
// json.Unmarshal accepts with the same result.
func FuzzDecodeReport(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p.js)
	}
	for _, p := range generatedPayloads(f, 2, 20) {
		f.Add(p.js)
	}
	// Escapes json.Marshal never writes: a solidus, a surrogate pair, and
	// high and low surrogates alone.
	f.Add([]byte(`{"Device":"\/\ud83d\ude00\ud800\u0041\udc00x\ud800","Version":"","Executable":"","Messages":null,"ClusterCounts":null}`))
	f.Fuzz(func(t *testing.T, js []byte) {
		if got, err := decodeReport(js); err == nil {
			matchJSON(t, "input", js, got)
		}
	})
}

// BenchmarkDecodeReport decodes the symbol-full golden payloads, one per
// op in turn, with the cache's decoder and with json.Unmarshal.
func BenchmarkDecodeReport(b *testing.B) {
	goldens := goldenPayloads(b)[:20]
	b.Run("decodeReport", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeReport(goldens[i%len(goldens)].js); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(goldens[i%len(goldens)].js, new(Report)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecodeSharesEnumStrings: every enumerated field of a decoded golden
// (symbol-full, stripped and probe) is the code's own string for its
// value, sharing its storage, not a copy; and enumStrings holds the code's
// constants themselves.
func TestDecodeSharesEnumStrings(t *testing.T) {
	shared := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for _, c := range []struct{ got, want string }{
		{enumStrings["json"], fields.FormatJSON.String()},
		{enumStrings["missing-primitives"], formcheck.FormMissingPrimitives.String()},
		{enumStrings["nvram"], taint.LeafNVRAM.String()},
		{enumStrings[semantics.Labels[0]], semantics.Labels[0]},
		{enumStrings["stage-panic"], errdefs.Kind(errdefs.ErrStagePanic)},
		{enumStrings[ProbeGranted], ProbeGranted},
		{enumStrings["SSL_write"], externs.ByRole(externs.RoleDeliver)[0]},
	} {
		if !shared(c.got, c.want) {
			t.Errorf("enumStrings[%q] does not share the code's string", c.want)
		}
	}
	check := func(name, field, v string) {
		if s, ok := enumStrings[v]; !ok || !shared(s, v) {
			t.Errorf("%s: %s %q is not the code's own string (known: %t)", name, field, v, ok)
		}
	}
	n := 0
	for _, p := range goldenPayloads(t) {
		r, err := decodeReport(p.js)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, m := range r.Messages {
			check(p.name, "Deliver", m.Deliver)
			check(p.name, "Format", m.Format)
			check(p.name, "Verdict", m.Verdict)
			for _, f := range m.Fields {
				check(p.name, "Semantics", f.Semantics)
				check(p.name, "Source", f.Source)
				n += 2
			}
			n += 3
		}
		for _, g := range r.Diagnostics {
			check(p.name, "Rule", g.Rule)
			check(p.name, "Severity", g.Severity)
			n += 2
		}
		for _, e := range r.Errors {
			check(p.name, "stage", e.Stage)
			check(p.name, "kind", e.Kind)
			n += 2
		}
		if r.Probe != nil {
			for _, o := range r.Probe.Outcomes {
				check(p.name, "Transport", o.Transport)
				check(p.name, "Classification", o.Classification)
				n += 2
				if o.ErrorKind != "" {
					check(p.name, "ErrorKind", o.ErrorKind)
				}
				for _, a := range []*ProbeAttempt{o.Validity, o.Attack} {
					if a != nil {
						check(p.name, "Class", a.Class)
						n++
					}
				}
			}
		}
	}
	t.Logf("%d enumerated fields checked", n)
}
