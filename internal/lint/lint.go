// Package lint is a pass-manager framework running pluggable static
// checkers over every lifted function of the device-cloud executable. It
// generalizes the ad-hoc pattern matching of formcheck/taint into a
// rule-based analysis layer in the spirit of argXtract's security-config
// recovery and UVSCAN's usage-violation rules: each checker inspects one
// function through shared per-function analysis state — the CFG, the
// reaching-definitions solution, the dominator tree, and a conditional
// constant-propagation solution, all read through the memoized
// internal/facts store so nothing is recomputed across consumers — and
// emits structured diagnostics.
//
// Checkers register themselves at init time; the Runner executes a selected
// subset over a program, stamps provenance, deduplicates, and sorts the
// diagnostics deterministically so repeated runs are byte-identical.
package lint

import (
	"context"
	"fmt"
	"sort"

	"firmres/internal/facts"
	"firmres/internal/obs"
	"firmres/internal/parallel"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities, in ascending order.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity?%d", uint8(s))
	}
}

// ParseSeverity maps a severity name back to its grade; unknown names rank
// as info.
func ParseSeverity(s string) Severity {
	switch s {
	case "error":
		return SevError
	case "warning":
		return SevWarning
	default:
		return SevInfo
	}
}

// Diagnostic is one finding of one checker.
type Diagnostic struct {
	Rule       string   // checker rule name ("hardcoded-secret", ...)
	Severity   Severity // finding grade
	Executable string   // image path of the analyzed executable
	Function   string   // containing function
	Addr       uint32   // machine address of the offending site
	Message    string   // human-readable finding
	Evidence   []string // supporting facts (keys, values, callsites)
}

// Checker is one pluggable lint pass. Check inspects a single function and
// returns findings with Severity/Addr/Message/Evidence filled in; the
// Runner stamps Rule, Executable, and Function.
type Checker interface {
	Rule() string        // stable rule identifier
	Description() string // one-line rule summary
	Check(fc *FuncContext) []Diagnostic
}

// FuncContext carries the shared per-function analysis state a checker
// reads: the facts-layer handle (CFG, def-use, constants, dominators,
// string recovery — memoized once per program, shared with the taint
// engine and handler identification) plus the lint-private field plants.
// One FuncContext is built per (function, runner invocation) and used by a
// single goroutine; only the embedded facts.Func is shared.
type FuncContext struct {
	*facts.Func

	plants    []plant
	plantsSet bool
}

// registry holds the compiled-in checkers, keyed by rule name.
var registry = map[string]Checker{}

// MustRegister adds a checker to the registry; duplicate rule names are a
// programming error.
func MustRegister(c Checker) {
	if _, dup := registry[c.Rule()]; dup {
		panic(fmt.Sprintf("lint: duplicate rule %q", c.Rule()))
	}
	registry[c.Rule()] = c
}

// Rules lists the registered rule names in sorted order.
func Rules() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a registered rule.
func Describe(rule string) (string, bool) {
	c, ok := registry[rule]
	if !ok {
		return "", false
	}
	return c.Description(), true
}

// Runner executes a fixed set of checkers over lifted programs.
type Runner struct {
	checkers []Checker
}

// NewRunner selects the given rules (all registered rules when empty). An
// unknown rule name is an error, so CLI typos surface instead of silently
// checking nothing.
func NewRunner(rules []string) (*Runner, error) {
	if len(rules) == 0 {
		rules = Rules()
	}
	r := &Runner{}
	seen := map[string]bool{}
	for _, name := range rules {
		if seen[name] {
			continue
		}
		seen[name] = true
		c, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %v)", name, Rules())
		}
		r.checkers = append(r.checkers, c)
	}
	sort.Slice(r.checkers, func(i, j int) bool { return r.checkers[i].Rule() < r.checkers[j].Rule() })
	return r, nil
}

// RunFacts executes every selected checker over every function of fx's
// program, stamping, deduplicating, and deterministically sorting the
// findings. It reads the per-function artifacts through the shared facts
// store and checks functions on up to workers goroutines (workers <= 0
// selects GOMAXPROCS). The final Dedupe sort makes the output independent
// of completion order, so any worker count yields identical diagnostics.
func (r *Runner) RunFacts(ctx context.Context, fx *facts.Program, executable string, workers int) []Diagnostic {
	prog := fx.Prog()
	met := fx.Metrics()
	slots := make([][]Diagnostic, len(prog.Funcs))
	parallel.ForEach(ctx, workers, len(prog.Funcs), func(i int) {
		fn := prog.Funcs[i]
		sp := obs.StartChild(ctx, "lint-fn")
		sp.AddString("fn", fn.Name())
		fc := &FuncContext{Func: fx.Func(fn)}
		for _, c := range r.checkers {
			found := c.Check(fc)
			if len(found) > 0 {
				met.Counter("lint_diags_total", "rule", c.Rule()).Add(int64(len(found)))
			}
			for _, d := range found {
				d.Rule = c.Rule()
				d.Executable = executable
				d.Function = fn.Name()
				slots[i] = append(slots[i], d)
			}
		}
		sp.AddInt("diags", len(slots[i]))
		sp.End()
	})
	met.Counter("lint_functions_total").Add(int64(len(prog.Funcs)))
	var out []Diagnostic
	for _, s := range slots {
		out = append(out, s...)
	}
	return Dedupe(out)
}

// Dedupe drops exact-duplicate diagnostics and sorts the rest with Sort.
func Dedupe(diags []Diagnostic) []Diagnostic {
	Sort(diags)
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && sameDiag(d, diags[i-1]) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func sameDiag(a, b Diagnostic) bool {
	return a.Rule == b.Rule && a.Executable == b.Executable &&
		a.Function == b.Function && a.Addr == b.Addr && a.Message == b.Message
}

// Sort orders diagnostics by (executable, function, address, rule, message)
// — a stable key, so repeated runs render byte-identically.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Executable != b.Executable {
			return a.Executable < b.Executable
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
