package slices_test

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/corpus"
	fmtparts "firmres/internal/slices"
	"firmres/internal/taint"
)

// splitFormatRef is SplitFormat as it was before the part scanner, kept
// as the reference the scanner and its users are held to.
func splitFormatRef(format string) []fmtparts.Part {
	var parts []fmtparts.Part
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, fmtparts.Part{Text: text.String()})
			text.Reset()
		}
	}
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			text.WriteByte(format[i])
			continue
		}
		if format[i+1] == '%' {
			text.WriteByte('%')
			i++
			continue
		}
		j := i + 1
		for j < len(format) && strings.ContainsRune("0123456789.+-# lh", rune(format[j])) {
			j++
		}
		if j < len(format) {
			j++
		}
		flush()
		parts = append(parts, fmtparts.Part{Text: format[i:j], Verb: true})
		i = j - 1
	}
	flush()
	return parts
}

// verbSegmentRef is the key hint of argument argIdx as it was computed
// from the reference split: the text before each verb, indexed from
// argument 2 (sprintf) or, failing that, 3 (snprintf).
func verbSegmentRef(parts []fmtparts.Part, argIdx int) (string, bool) {
	var verbTexts []string
	for i, p := range parts {
		if p.Verb {
			text := ""
			if i > 0 && !parts[i-1].Verb {
				text = parts[i-1].Text
			}
			verbTexts = append(verbTexts, text)
		}
	}
	for base := 2; base <= 3; base++ {
		if pos := argIdx - base; pos >= 0 && pos < len(verbTexts) {
			return verbTexts[pos], true
		}
	}
	return "", false
}

// corpusFormats returns every string constant of the 22-device corpus
// that holds a '%': every format string its executables pass.
func corpusFormats(tb testing.TB) []string {
	tb.Helper()
	var out []string
	for id := 1; id <= 22; id++ {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			tb.Fatalf("BuildImage(%d): %v", id, err)
		}
		for _, f := range img.Executables() {
			if !f.IsBinary() {
				continue
			}
			bin, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				tb.Fatalf("device %d %s: %v", id, f.Path, err)
			}
			for _, ds := range bin.DataSyms {
				if s, ok := bin.StringAt(ds.Addr); ok && ds.Kind == binfmt.DataString && strings.Contains(s, "%") && !slices.Contains(out, s) {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// FuzzFormatParts holds the format-part scanner to the reference split:
// SplitFormat (the collector over NextPart), every verb's key hint and
// FormatSubstrings must read a format exactly as the reference does,
// whatever its escapes, flags, width, precision or trailing '%'.
func FuzzFormatParts(f *testing.F) {
	for _, s := range []string{
		"mac=%s&sn=%s", "%d items", "100%% sure", "pad=%02x!", "no verbs", "", "trailing %",
		"%%%", "a%%b=%s", "%-8.3lf|%+ d%", "%s%d", "%5", "x=%%%s&y=%%",
	} {
		f.Add(s)
	}
	formats := corpusFormats(f)
	if len(formats) == 0 {
		f.Fatal("the corpus holds no format string")
	}
	for _, s := range formats {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, format string) {
		want := splitFormatRef(format)
		if got := fmtparts.SplitFormat(format); !slices.Equal(got, want) {
			t.Fatalf("SplitFormat(%q) = %+v, want %+v", format, got, want)
		}

		verbs := 0
		for _, p := range want {
			if p.Verb {
				verbs++
			}
		}
		for argIdx := 0; argIdx <= verbs+4; argIdx++ {
			arg := &taint.Node{Kind: taint.NodeArg, ArgLabel: "arg" + strconv.Itoa(argIdx)}
			got, gotOK := fmtparts.VerbSegment(format, arg)
			ref, refOK := verbSegmentRef(want, argIdx)
			if got != ref || gotOK != refOK {
				t.Fatalf("verbSegment(%q, arg%d) = %q, %v; want %q, %v", format, argIdx, got, gotOK, ref, refOK)
			}
		}

		var subs []string
		for _, p := range want {
			if !p.Verb && p.Text != "" && !slices.Contains(subs, p.Text) {
				subs = append(subs, p.Text)
			}
		}
		sort.Strings(subs)
		mfts := []*taint.MFT{{Root: &taint.Node{Kind: taint.NodeCall, Format: format}}}
		got, saw := fmtparts.FormatSubstrings(mfts)
		if saw != (format != "") || !slices.Equal(got, subs) {
			t.Fatalf("FormatSubstrings(%q) = %q, %v; want %q, %v", format, got, saw, subs, format != "")
		}
	})
}
