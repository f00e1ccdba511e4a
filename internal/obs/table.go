package obs

import (
	"fmt"
	"slices"

	"firmres/internal/errdefs"
)

// The metric table: every metric the program emits, declared once, with
// its kind and the closed value set of each label key. Each identity, a
// name with one value per label key, gets a dense ID, and its rendered
// keys are built here, once, at init; a registry is a slice of slots
// indexed from the ID. Looking up an identity the table does not declare
// panics: a metric that appears in no table is a bug, not an input.
//
// The value sets mirror the code that emits them, which cannot be
// imported from here: the stage names of internal/core, the facts
// artifacts, the semantics labels, the lint rules, the form-check
// verdicts, the probe classes, the chaos faults, the faultinject modes and
// FirmServe's job states and submission outcomes. The error kinds are
// errdefs.Kinds().

// kind is what a declared metric counts with.
type kind uint8

const (
	counterKind   kind = iota
	histogramKind      // four slots: count, sum, min, max
)

// label is one label key and the closed set of values it takes.
type label struct {
	key    string
	values []string
}

// metricDef declares one metric: its name, kind and label keys, in the
// order its emitters pass them.
type metricDef struct {
	name   string
	kind   kind
	labels []label
	first  int // ID of the identity whose every label takes its first value
}

var (
	stageNames = []string{
		"pinpoint-executables", "identify-fields", "recover-semantics",
		"concatenate-fields", "check-forms", "lint-passes", "probe-replay",
	}
	semanticLabels = []string{
		"Dev-Identifier", "Dev-Secret", "User-Cred", "Bind-Token",
		"Signature", "Address", "None",
	}
	// A field of a degraded analysis, whose semantics stage labelled
	// nothing, carries the empty label.
	fieldLabels = append(append([]string(nil), semanticLabels...), "")
	lintRules   = []string{
		"const-identifier", "dead-store", "format-arity", "hardcoded-secret",
		"unchecked-source",
	}
	verdicts     = []string{"ok", "missing-primitives", "hardcoded-secret", "no-primitives"}
	artifacts    = []string{"cfg", "defuse", "consts", "idom", "callgraph"}
	probeClasses = []string{"granted", "denied", "invalid", "probe-failed"}
	chaosFaults  = []string{"latency", "reset", "drop", "5xx", "slowloris", "mqtt-reject", "mqtt-drop"}
	faultModes   = []string{
		"truncate", "bit-flip", "bad-magic", "bad-checksum", "bad-section-header",
		"oversized-string-table", "huge-file-count", "cyclic-call-graph",
		"garbage-executable",
	}
	jobStates      = []string{"queued", "running", "done", "failed"}
	submitOutcomes = []string{
		"accepted", "cache_hit", "deduped", "draining", "error", "invalid",
		"queue_full", "rate_limited",
	}
)

// table declares every metric, grouped by the layer that emits it.
var table = []metricDef{
	// internal/core
	{name: "errors_total", labels: []label{{"kind", errdefs.Kinds()}, {"stage", stageNames}}},
	{name: "formcheck_flagged_total", labels: []label{{"verdict", verdicts}}},
	{name: "mfts_total"},
	{name: "fields_per_message", kind: histogramKind},
	{name: "message_fields_total", labels: []label{{"label", fieldLabels}}},
	{name: "pinpoint_candidates_total"},
	{name: "strip_funcs_recovered_total"},
	{name: "strip_strings_recovered_total"},
	{name: "strip_externs_bound_total"},
	{name: "strip_externs_unbound_total"},
	// internal/facts
	{name: "facts_requests_total", labels: []label{{"artifact", artifacts}}},
	{name: "facts_builds_total", labels: []label{{"artifact", artifacts}}},
	// internal/identify
	{name: "identify_anchors_total", labels: []label{{"role", []string{"in", "out"}}}},
	{name: "identify_anchor_pairs_total"},
	{name: "identify_handlers_total"},
	{name: "identify_async_handlers_total"},
	// internal/taint
	{name: "taint_delivery_sites_total"},
	{name: "taint_mfts_total"},
	{name: "taint_trace_steps_total"},
	{name: "taint_budget_exhausted_total"},
	{name: "taint_steps_per_mft", kind: histogramKind},
	{name: "taint_frontier_per_mft", kind: histogramKind},
	// internal/semantics
	{name: "semantics_classified_total", labels: []label{{"label", semanticLabels}}},
	// internal/lint
	{name: "lint_diags_total", labels: []label{{"rule", lintRules}}},
	{name: "lint_functions_total"},
	// internal/cloud, internal/cloud/probe and internal/cloud/chaos
	{name: "probe_attempts_total"},
	{name: "probe_retries_total"},
	{name: "probe_results_total", labels: []label{{"class", probeClasses}}},
	{name: "probe_vulnerable_total"},
	{name: "probe_failed_total", labels: []label{{"kind", errdefs.Kinds()}}},
	{name: "probe_chaos_trips_total", labels: []label{{"fault", chaosFaults}}},
	// internal/faultinject
	{name: "faultinject_trips_total", labels: []label{{"mode", faultModes}}},
	// internal/serve
	{name: "serve_job_latency_ms", kind: histogramKind},
	{name: "serve_jobs_completed_total", labels: []label{{"state", jobStates}}},
	{name: "serve_retries_total"},
	{name: "serve_submissions_total", labels: []label{{"outcome", submitOutcomes}}},
}

// identity is one declared (name, label values) pair.
type identity struct {
	slot int       // its first slot in a registry
	hist bool      // a histogram's four slots, not a counter's one
	keys [4]string // its snapshot key; a histogram's four component keys
}

var (
	defs       = map[string]*metricDef{} // by name
	identities []identity                // by ID
	numSlots   int
)

func init() {
	for i := range table {
		d := &table[i]
		if defs[d.name] != nil {
			panic(fmt.Sprintf("obs: metric %s declared twice", d.name))
		}
		defs[d.name] = d
		d.first = len(identities)
		d.expand(make([]string, 0, 2*len(d.labels)))
	}
}

// expand declares every identity of d with the label pairs in pairs so far,
// the last label varying fastest, which is the order of id's mixed radix.
func (d *metricDef) expand(pairs []string) {
	if j := len(pairs) / 2; j < len(d.labels) {
		for _, v := range d.labels[j].values {
			d.expand(append(pairs, d.labels[j].key, v))
		}
		return
	}
	id := identity{slot: numSlots}
	switch d.kind {
	case counterKind:
		id.keys[0] = Key(d.name, pairs...)
		numSlots++
	case histogramKind:
		id.hist = true
		name, labels := splitKey(Key(d.name, pairs...))
		for c, suffix := range [4]string{"_count", "_sum", "_min", "_max"} {
			id.keys[c] = name + suffix + labels
		}
		numSlots += 4
	}
	identities = append(identities, id)
}

// id resolves an identity, label pairs in any key order, to its ID, or
// to -1 when the table does not declare it, or declares it with another
// kind.
func (d *metricDef) id(k kind, labels []string) int {
	if d == nil || d.kind != k || len(labels) != 2*len(d.labels) {
		return -1
	}
	id := 0
	for _, l := range d.labels {
		v := -1
		for i := 0; i+1 < len(labels); i += 2 {
			if labels[i] == l.key {
				v = slices.Index(l.values, labels[i+1])
				break
			}
		}
		if v < 0 {
			return -1
		}
		id = id*len(l.values) + v
	}
	return d.first + id
}

// lookup is id with the table's failure made loud.
func lookup(k kind, name string, labels []string) int {
	id := defs[name].id(k, labels)
	if id < 0 {
		what := "counter"
		if k == histogramKind {
			what = "histogram"
		}
		panic(fmt.Sprintf("obs: %s %s is not declared in the metric table", what, Key(name, labels...)))
	}
	return id
}
