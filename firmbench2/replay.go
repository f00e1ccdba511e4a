package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"firmres"
	"firmres/internal/binfmt"
	"firmres/internal/cloud"
	"firmres/internal/cloud/probe"
	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/errdefs"
	"firmres/internal/facts"
	"firmres/internal/fields"
	"firmres/internal/formcheck"
	"firmres/internal/identify"
	"firmres/internal/image"
	"firmres/internal/lint"
	"firmres/internal/mft"
	"firmres/internal/nvram"
	"firmres/internal/obs"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/strip"
	"firmres/internal/taint"
)

// clusterThresholds are the pipeline's default delimiter-clustering
// thresholds (§IV-C).
var clusterThresholds = []float64{0.5, 0.6, 0.7}

// replayer is the layer replay: it drives one image through the same public
// entry points internal/core calls, in the same order, one layer at a time
// on one goroutine, and records a span around each call. It exists so a
// traced run can time every layer from outside the program; its report must
// equal the golden.
//
// Two departures from core keep each layer's time in its own span: the
// facts artifacts (CFG, def-use, constant propagation, dominators) are
// built for every function up front instead of on first request, and the
// stage work runs sequentially.
type replayer struct {
	lint, stripped bool
	probe          *probe.Options // nil: no probe stage
	classifier     semantics.Classifier
}

func newReplayer(lint, stripped bool, probers int, withProbe bool) *replayer {
	rp := &replayer{lint: lint, stripped: stripped, classifier: &semantics.KeywordClassifier{}}
	if withProbe {
		rp.probe = &probe.Options{Resolver: "corpus", SpecFor: corpusSpecFor, Probers: probers}
	}
	return rp
}

// corpusSpecFor resolves the simulated cloud of a corpus device by its
// report identity, as the firmres probe option does.
func corpusSpecFor(device, version string) *cloud.Spec {
	for _, d := range corpus.Devices() {
		if device == d.Vendor+" "+d.Model && version == d.Version {
			return corpus.CloudSpec(d)
		}
	}
	return nil
}

// layerCounts are the work counts of replayed images.
type layerCounts struct {
	images                                                        int
	funcsRecovered, ops, mfts, slices, diags, probes, probeFailed int
}

// candidate is one device-cloud executable found while pinpointing.
type candidate struct {
	path  string
	prog  *pcode.Program
	fx    *facts.Program
	score float64
	rec   *strip.Stats // the recovery record when the binary was stripped
}

// run replays one packed image under parent (nil: a root span). A
// script-only image fails with an error wrapping
// errdefs.ErrNoDeviceCloudExecutable, as the pipeline does.
func (rp *replayer) run(ctx context.Context, rec *obs.Recorder, parent *obs.Span, data []byte) (*firmres.Report, layerCounts, error) {
	lc := layerCounts{images: 1}
	root := rec.StartSpan(parent, "image")
	defer root.End()
	span := func(name string, fn func()) {
		sp := root.Child(name)
		fn()
		sp.End()
	}

	var img *image.Image
	var err error
	span("image.unpack", func() { img, err = image.Unpack(data) })
	if err != nil {
		return nil, lc, fmt.Errorf("replay: %w: %w", errdefs.ErrCorruptImage, err)
	}
	root.AddString("device", img.Device)

	// Pinpoint: every binary executable is parsed, recovered when stripped,
	// lifted and identified; the best-scoring device-cloud candidate wins.
	hints := recoveryHints(img)
	var best *candidate
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		var bin *binfmt.Binary
		span("binfmt.unmarshal", func() { bin, err = binfmt.Unmarshal(f.Data) })
		if err != nil {
			return nil, lc, fmt.Errorf("replay: %s: %w", f.Path, err)
		}
		var rec *strip.Stats
		if rp.stripped || strip.Needed(bin) {
			span("strip.recover", func() { rec = strip.Recover(bin, hints) })
			if rec.FuncsRecovered == 0 && rec.StringsRecovered == 0 && rec.ExternsTotal == 0 {
				rec = nil
			} else {
				lc.funcsRecovered += rec.FuncsRecovered
			}
		}
		var prog *pcode.Program
		span("pcode.lift", func() { prog, err = pcode.LiftProgram(bin) })
		if err != nil {
			return nil, lc, fmt.Errorf("replay: %s: %w", f.Path, err)
		}
		for _, fn := range prog.Funcs {
			lc.ops += len(fn.Ops)
		}
		fx := facts.New(prog)
		span("facts.cfg", func() {
			for _, fn := range prog.Funcs {
				fx.Func(fn).CFG()
			}
		})
		span("facts.defuse", func() {
			for _, fn := range prog.Funcs {
				fx.Func(fn).DefUse()
			}
		})
		var id *identify.Result
		span("identify", func() { id = identify.Analyze(prog, identify.WithFacts(fx)) })
		if !id.IsDeviceCloud {
			continue
		}
		c := &candidate{path: f.Path, prog: prog, fx: fx, rec: rec}
		for _, h := range id.Handlers {
			if h.Async && h.Score > c.score {
				c.score = h.Score
			}
		}
		if best == nil || c.score > best.score {
			best = c
		}
	}
	if best == nil {
		return nil, lc, fmt.Errorf("replay: %q: %w", img.Device, errdefs.ErrNoDeviceCloudExecutable)
	}

	span("facts.constprop", func() {
		for _, fn := range best.prog.Funcs {
			best.fx.Func(fn).Consts()
		}
	})
	if rp.lint {
		span("facts.dom", func() {
			for _, fn := range best.prog.Funcs {
				best.fx.Func(fn).Idom()
			}
		})
	}

	// Identify fields: backward taint, then split, simplify and slice.
	var traced []*taint.MFT
	span("taint", func() { traced = taint.NewEngineFacts(best.fx, taint.Options{}).AnalyzeContext(ctx, 1) })
	var mfts []*taint.MFT
	var trees []*mft.Tree
	span("mft", func() {
		for _, m := range traced {
			mfts = append(mfts, mft.Split(m)...)
		}
		for _, m := range mfts {
			trees = append(trees, mft.Simplify(m))
		}
	})
	lc.mfts = len(mfts)
	sls := make([][]slices.Slice, len(trees))
	var clusters map[string]int
	span("slices", func() {
		for i, t := range trees {
			sls[i] = slices.Generate(t)
			lc.slices += len(sls[i])
		}
		if subs, ok := slices.FormatSubstrings(mfts); ok {
			clusters = map[string]int{}
			for _, thd := range clusterThresholds {
				clusters[fmt.Sprintf("%.1f", thd)] = len(slices.Cluster(subs, thd))
			}
		}
	})

	infos := make([][]fields.SliceInfo, len(trees))
	span("semantics", func() {
		for i := range sls {
			for _, s := range sls[i] {
				label, conf := rp.classifier.Classify(s)
				infos[i] = append(infos[i], fields.SliceInfo{Slice: s, Label: label, Confidence: conf})
			}
		}
	})

	msgs := make([]core.MessageResult, len(trees))
	var notes []errdefs.AnalysisError
	span("fields", func() {
		var resolver *fields.MapResolver
		resolver, notes = core.ResolverFromImageNotes(img)
		for i := range trees {
			msgs[i] = core.MessageResult{
				MFT: mfts[i], Tree: trees[i], Slices: sls[i], Infos: infos[i],
				Message: fields.Build(trees[i], infos[i], resolver),
			}
		}
	})

	span("formcheck", func() {
		for i := range msgs {
			if !msgs[i].Message.Discarded {
				msgs[i].Finding = formcheck.Check(msgs[i].Message, img)
			}
		}
	})

	var diags []lint.Diagnostic
	if rp.lint {
		span("lint", func() {
			var runner *lint.Runner
			if runner, err = lint.NewRunner(nil); err == nil {
				diags = runner.RunFacts(ctx, best.fx, best.path, 1)
			}
		})
		if err != nil {
			return nil, lc, err
		}
		lc.diags = len(diags)
	}

	var probed *probe.Report
	if rp.probe != nil {
		spec := rp.probe.SpecFor(img.Device, img.Version)
		if spec == nil {
			return nil, lc, fmt.Errorf("replay: %w: %s", errdefs.ErrNoCloudSpec, img.Device)
		}
		ptrs := make([]*fields.Message, len(msgs))
		for i := range msgs {
			ptrs[i] = msgs[i].Message
		}
		span("probe", func() { probed, err = probe.Device(ctx, spec, ptrs, img, *rp.probe) })
		if err != nil {
			return nil, lc, err
		}
		lc.probes = probed.Probed
		lc.probeFailed = probed.Counts[probe.ClassFailed]
	}
	return buildReport(img, best, msgs, clusters, diags, notes, probed), lc, nil
}

// recoveryHints collects the NVRAM and configuration key universes that
// sharpen extern identification on stripped binaries, split by path as the
// pipeline does.
func recoveryHints(img *image.Image) strip.Hints {
	h := strip.Hints{NVRAMKeys: map[string]bool{}, ConfigKeys: map[string]bool{}}
	for _, f := range img.ConfigFiles() {
		store, err := nvram.Parse(f.Data)
		if err != nil {
			continue
		}
		target := h.ConfigKeys
		if strings.Contains(f.Path, "nvram") {
			target = h.NVRAMKeys
		}
		for _, k := range store.Keys() {
			target[k] = true
		}
	}
	return h
}

// buildReport renders the replay's results in the public report shape.
func buildReport(img *image.Image, best *candidate, msgs []core.MessageResult, clusters map[string]int,
	diags []lint.Diagnostic, notes []errdefs.AnalysisError, probed *probe.Report) *firmres.Report {
	r := &firmres.Report{Device: img.Device, Version: img.Version, Executable: best.path, ClusterCounts: clusters}
	if rec := best.rec; rec != nil {
		rr := &firmres.RecoveryReport{
			Binary: rec.Binary, FuncsRecovered: rec.FuncsRecovered, StringsRecovered: rec.StringsRecovered,
			ExternsTotal: rec.ExternsTotal, ExternsBound: rec.ExternsBound,
			Confidence: rec.Confidence, Notes: rec.Notes,
		}
		for _, b := range rec.Bindings {
			rr.Bindings = append(rr.Bindings, firmres.RecoveryBinding(b))
		}
		r.Recovery = rr
	}
	for _, ae := range notes {
		r.Errors = append(r.Errors, firmres.AnalysisError{
			Stage: ae.Stage, Path: ae.Path, Kind: ae.Kind(), Detail: ae.Err.Error(), Err: ae.Err,
		})
	}
	sort.Slice(r.Errors, func(i, j int) bool {
		a, b := r.Errors[i], r.Errors[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	for _, d := range diags {
		r.Diagnostics = append(r.Diagnostics, firmres.Diagnostic{
			Rule: d.Rule, Severity: d.Severity.String(), Executable: d.Executable,
			Function: d.Function, Addr: uint64(d.Addr), Message: d.Message, Evidence: d.Evidence,
		})
	}
	core.SortMessagesByFunction(msgs)
	for i := range msgs {
		mr := &msgs[i]
		m := firmres.Message{
			Function: mr.Message.Function, Context: mr.Message.Context, Deliver: mr.Message.Deliver,
			Format: mr.Message.Format.String(), Topic: mr.Message.Topic, Path: mr.Message.Path,
			Body: mr.Message.Body, Discarded: mr.Message.Discarded, Flagged: mr.Flagged(),
			Verdict: mr.Finding.Verdict.String(), Detail: mr.Finding.Detail,
		}
		if mr.Message.Discarded {
			m.Detail, m.Verdict = mr.Message.Reason, "discarded"
		}
		for _, f := range mr.Message.Fields {
			m.Fields = append(m.Fields, firmres.Field{
				Key: f.Key, Semantics: f.Semantics, Confidence: f.Confidence,
				Source: f.Source.String(), SourceKey: f.SourceKey, Value: f.Value,
			})
		}
		r.Messages = append(r.Messages, m)
	}
	if probed != nil {
		pr := &firmres.ProbeReport{Probed: probed.Probed, Vulnerable: probed.Vulnerable, Counts: probed.Counts}
		for _, o := range probed.Outcomes {
			po := firmres.ProbeOutcome{
				Function: o.Function, Context: o.Context, Transport: o.Transport, Route: o.Route,
				Classification: o.Classification, Vulnerable: o.Vulnerable, Leaks: o.Leaks, ErrorKind: o.ErrorKind,
			}
			if o.Validity != nil {
				a := firmres.ProbeAttempt(*o.Validity)
				po.Validity = &a
			}
			if o.Attack != nil {
				a := firmres.ProbeAttempt(*o.Attack)
				po.Attack = &a
			}
			pr.Outcomes = append(pr.Outcomes, po)
		}
		r.Probe = pr
	}
	return r
}
