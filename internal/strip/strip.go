package strip

import (
	"fmt"
	"sort"

	"firmres/internal/binfmt"
)

// Binding records how one stripped import was (or was not) identified.
type Binding struct {
	Import     int     `json:"import"`             // import table index
	Name       string  `json:"name,omitempty"`     // bound extern name, "" when unbound
	Arity      int     `json:"arity"`              // observed callsite arity
	Sites      int     `json:"sites"`              // number of callsites observed
	Confidence float64 `json:"confidence"`         // 0..1, margin-normalized
	Evidence   string  `json:"evidence,omitempty"` // human-readable rationale
}

// Stats summarizes one binary's recovery pass for the report.
type Stats struct {
	Binary           string         `json:"binary"`
	FuncsRecovered   int            `json:"funcs_recovered"`
	StringsRecovered int            `json:"strings_recovered"`
	ExternsTotal     int            `json:"externs_total"`
	ExternsBound     int            `json:"externs_bound"`
	Bindings         []Binding      `json:"bindings,omitempty"`
	Confidence       map[string]int `json:"confidence,omitempty"` // histogram, bucket -> count
	Notes            []string       `json:"notes,omitempty"`
}

// histBucket maps a confidence value to its histogram bucket label.
func histBucket(c float64) string {
	switch {
	case c < 0.2:
		return "0.0-0.2"
	case c < 0.4:
		return "0.2-0.4"
	case c < 0.6:
		return "0.4-0.6"
	case c < 0.8:
		return "0.6-0.8"
	default:
		return "0.8-1.0"
	}
}

// Recover rebuilds the symbol information a stripped binary is missing, in
// place, and reports what it did. It is idempotent on symbol-full binaries:
// each of the three analyses runs only when its symbols are absent, so a
// partial strip (say, function symbols survived but import names did not)
// recovers only the missing layer and keeps surviving symbols authoritative.
//
//  1. Function boundaries — seeded from call targets and address-taken
//     code constants, grown by CFG reachability, gap-filled to a fixpoint
//     (boundary.go).
//  2. String data symbols — printable NUL-terminated runs in the data
//     segment, the taint engine's constant-leaf gate.
//  3. Extern identities — behavioral callsite fingerprints matched against
//     the name-blind signature index of internal/externs, injectively and
//     with per-binding confidence (match.go).
//
// The passes run in this order because extern matching consumes the other
// two: it walks recovered function bodies and reads recovered string
// constants. On return the binary's lookup index is rebuilt so downstream
// stages see a coherent, queryable symbol table.
func Recover(bin *binfmt.Binary, h Hints) *Stats {
	st := &Stats{Binary: bin.Name}

	// Boundary recovery and extern matching read the same decoded text.
	needFuncs, needNames := missingFuncs(bin), anyUnnamed(bin.Imports)
	var ts *textScan
	if needFuncs || needNames {
		ts = scanText(bin)
	}
	if needFuncs {
		bin.Funcs = recoverBoundaries(bin, ts)
		st.FuncsRecovered = len(bin.Funcs)
	}
	if missingStrings(bin) {
		bin.DataSyms = recoverStrings(bin)
		st.StringsRecovered = len(bin.DataSyms)
	}
	if needNames {
		matchExterns(bin, ts, h, st)
	}

	bin.SortSymbols()

	if st.ExternsTotal > 0 {
		st.Confidence = map[string]int{}
		for _, b := range st.Bindings {
			if b.Name != "" {
				st.Confidence[histBucket(b.Confidence)]++
			}
		}
		if unbound := st.ExternsTotal - st.ExternsBound; unbound > 0 {
			st.Notes = append(st.Notes,
				fmt.Sprintf("%d import(s) left unbound: callsite evidence insufficient", unbound))
		}
	}
	for _, b := range st.Bindings {
		if b.Name != "" && b.Confidence < 0.2 {
			st.Notes = append(st.Notes,
				fmt.Sprintf("import#%d bound to %q on tie-break (confidence %.2f): behavior-equivalent alternative exists", b.Import, b.Name, b.Confidence))
		}
	}
	sort.Strings(st.Notes[boundNotesStart(st):])
	return st
}

// boundNotesStart returns the index where the per-binding notes begin (the
// summary note, when present, stays first).
func boundNotesStart(st *Stats) int {
	if st.ExternsTotal > st.ExternsBound && len(st.Notes) > 0 {
		return 1
	}
	return 0
}

// Needed reports whether Recover would change bin: it has no function
// symbols over non-empty text, no data symbols over non-empty data, or an
// unnamed import. It is the pipeline's only switch for the pass, and it
// tests the same three conditions Recover acts on.
func Needed(bin *binfmt.Binary) bool {
	return missingFuncs(bin) || missingStrings(bin) || anyUnnamed(bin.Imports)
}

func missingFuncs(bin *binfmt.Binary) bool { return len(bin.Funcs) == 0 && len(bin.Text) > 0 }

func missingStrings(bin *binfmt.Binary) bool { return len(bin.DataSyms) == 0 && len(bin.Data) > 0 }

func anyUnnamed(imps []binfmt.Import) bool {
	for _, im := range imps {
		if im.Name == "" {
			return true
		}
	}
	return false
}
