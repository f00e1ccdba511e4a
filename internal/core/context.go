package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"firmres/internal/binfmt"
	"firmres/internal/cloud"
	"firmres/internal/cloud/probe"
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
	"firmres/internal/parallel"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/strip"
	"firmres/internal/taint"
)

// runStage executes one pipeline stage under the caller's context plus the
// configured per-stage budget, with panic recovery, inside the stage's span.
//
// The stage body runs in its own goroutine and must not mutate shared state
// directly: it returns a commit closure that runStage invokes only when the
// stage finishes in time. A stage that blows its budget is abandoned — its
// goroutine keeps running until its own loops notice the cancelled context,
// but its commit is never applied, so abandoned work cannot race with later
// stages. Stage bodies that fan out onto worker pools (parallel.ForEach)
// keep these semantics: a worker panic is re-raised on the stage body's
// goroutine and lands in the recover below, and cancellation stops the pool
// from claiming new work.
//
// runStage is the one place that tells a degraded stage from a fatal one. A
// stage that timed out or panicked while the caller's context is live is
// appended to res.Errors and runStage returns nil: the analysis continues
// on whatever earlier stages recovered. The error return means the
// analysis must stop — the caller's context expired (wrapped in
// errdefs.ErrStageTimeout) or the stage body reported a fatal error.
func (p *Pipeline) runStage(ctx context.Context, res *Result, s Stage, fn func(context.Context) (func(), error)) error {
	// Stage span: a child of the image span the caller put on ctx, and the
	// stage's only wall-clock record. The stage body receives the span
	// through its context, so inner-loop grandchildren (taint sites, lint
	// functions, ...) nest under it.
	sp := obs.FromContext(ctx).Child(s.String())
	defer sp.End()
	stageCtx, cancel := ctx, func() {}
	if p.opts.StageTimeout > 0 {
		stageCtx, cancel = context.WithTimeout(ctx, p.opts.StageTimeout)
	}
	defer cancel()
	stageCtx = obs.ContextWith(stageCtx, sp)

	type outcome struct {
		commit func()
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("%w: %v", errdefs.ErrStagePanic, r)}
			}
		}()
		commit, err := fn(stageCtx)
		done <- outcome{commit: commit, err: err}
	}()

	var err error
	select {
	case out := <-done:
		// Apply whatever the stage recovered even when it also reports an
		// error: pinpoint records skipped executables alongside a fatal
		// "nothing found".
		if out.commit != nil {
			out.commit()
		}
		err = out.err
	case <-stageCtx.Done():
		err = fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, stageCtx.Err())
	}
	if err == nil {
		return nil
	}
	degradable := errors.Is(err, errdefs.ErrStagePanic) || errors.Is(err, errdefs.ErrStageTimeout)
	switch {
	case !degradable:
		sp.SetStatus("fatal")
		return err
	case ctx.Err() != nil:
		// The caller's context died, not just this stage's budget: fatal
		// for the whole analysis.
		sp.SetStatus("fatal")
		return fmt.Errorf("core: %w: %s: %w", errdefs.ErrStageTimeout, s, ctx.Err())
	case errors.Is(err, errdefs.ErrStagePanic):
		sp.SetStatus("panic")
	default:
		sp.SetStatus("timeout")
	}
	res.Errors = append(res.Errors, errdefs.AnalysisError{Stage: s.String(), Err: err})
	return nil
}

// AnalyzeImageContext runs the pipeline over one unpacked firmware image
// under ctx, degrading gracefully: a stage that exceeds Options.StageTimeout
// or panics is recorded in Result.Errors and the remaining stages run on
// whatever was recovered. The error return is reserved for fatal conditions
// — an expired caller context (wrapped in errdefs.ErrStageTimeout) or an
// image with no device-cloud executable.
//
// Intra-stage work fans out on Options.Workers-bounded pools; every stage
// collects into input-indexed slots, so the result is identical at any
// worker count.
func (p *Pipeline) AnalyzeImageContext(ctx context.Context, img *image.Image) (res *Result, err error) {
	res = &Result{Device: img.Device, Version: img.Version}
	var met *obs.Metrics
	if p.opts.Metrics {
		met = obs.NewMetrics()
	}
	imgSpan := p.opts.Obs.StartSpan(obs.FromContext(ctx), "image",
		obs.String("device", img.Device), obs.String("version", img.Version))
	ctx = obs.ContextWith(ctx, imgSpan)
	defer func() {
		// Degradation accounting happens once, after every stage ran:
		// errors_total{kind,stage} covers skipped executables, timed-out or
		// panicked stages, and unparseable config files alike.
		for _, ae := range res.Errors {
			met.Counter("errors_total", "kind", ae.Kind(), "stage", ae.Stage).Inc()
		}
		if met != nil {
			res.Metrics = met.Snapshot()
		}
		switch {
		case err != nil:
			imgSpan.SetStatus("fatal: " + errdefs.Kind(err))
		case res.Partial():
			imgSpan.SetStatus("partial")
		}
		imgSpan.End()
	}()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("core: %w: %w", errdefs.ErrStageTimeout, err)
	}
	workers := parallel.CPUWorkers(p.opts.Workers)

	// What each stage hands to the later ones. Only stage commits write
	// these, so an abandoned stage leaves them as the last committed stage
	// did.
	var (
		prog      *pcode.Program
		fx        *facts.Program
		mfts      []*taint.MFT
		trees     []*mft.Tree
		allSlices [][]slices.Slice
		infos     [][]fields.SliceInfo
	)
	// The winner's facts store carries every per-function artifact
	// identification computed into the later stages. Nothing reads it once
	// the analysis returns, so it is released here instead of pinning dead
	// per-function solutions for the rest of a batch.
	defer func() {
		if fx != nil {
			fx.Release()
		}
	}()

	stages := []struct {
		stage Stage
		runs  func() bool // nil: the stage always runs
		body  func(context.Context) (func(), error)
	}{
		// Stage 1: pinpoint the device-cloud executable. Corrupt or
		// panicking candidates are skipped per-executable; only a complete
		// sweep that finds nothing is fatal.
		{StagePinpoint, nil, func(sctx context.Context) (func(), error) {
			cand, skips, err := p.pinpoint(sctx, met, img)
			return func() {
				res.Errors = append(res.Errors, skips...)
				if cand != nil {
					prog, fx = cand.prog, cand.fx
					res.Executable, res.Handlers = cand.path, cand.handlers
					res.Recovery = cand.rec
				}
			}, err
		}},

		// Stage 2: identify message fields (backward taint, MFT
		// construction). Delivery sites are traced concurrently through the
		// shared facts store; the split trees are then simplified and sliced
		// per-message.
		{StageFields, func() bool { return prog != nil }, func(sctx context.Context) (func(), error) {
			engine := taint.NewEngineFacts(fx, p.opts.Taint)
			var ms []*taint.MFT
			for _, m := range engine.AnalyzeContext(sctx, workers) {
				ms = append(ms, mft.Split(m)...)
			}
			met.Counter("mfts_total").Add(int64(len(ms)))
			ts := make([]*mft.Tree, len(ms))
			sls := make([][]slices.Slice, len(ms))
			ran := parallel.ForEach(sctx, workers, len(ms), func(i int) {
				sp := obs.StartChild(sctx, "mft-simplify")
				sp.AddString("fn", ms[i].Site.Fn.Name())
				ts[i] = mft.Simplify(ms[i])
				sls[i] = slices.Generate(ts[i])
				sp.AddInt("slices", len(sls[i]))
				sp.End()
			})
			if ran < len(ms) {
				met.Counter("work_abandoned_total", "stage", StageFields.String()).Add(int64(len(ms) - ran))
			}
			if sctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, sctx.Err())
			}
			return func() {
				mfts, trees, allSlices = ms, ts, sls
				// One slot per tree even if recover-semantics degrades, so
				// concatenate-fields builds every message unlabelled.
				infos = make([][]fields.SliceInfo, len(ts))
			}, nil
		}},

		// Stage 3: recover field semantics. Per-message classification fans
		// out; the classifier must be safe for concurrent use (see Options).
		// It enriches through the winner's facts store, and its enrichment
		// is dropped when the stage ends.
		{StageSemantics, nil, func(sctx context.Context) (func(), error) {
			classify := semantics.Observed(semantics.Bind(p.opts.Classifier, fx), met)
			out := make([][]fields.SliceInfo, len(trees))
			parallel.ForEach(sctx, workers, len(trees), func(i int) {
				sp := obs.StartChild(sctx, "classify")
				sp.AddString("fn", mfts[i].Site.Fn.Name())
				sp.AddInt("slices", len(allSlices[i]))
				out[i] = make([]fields.SliceInfo, 0, len(allSlices[i]))
				for _, s := range allSlices[i] {
					label, conf := classify.Classify(s)
					out[i] = append(out[i], fields.SliceInfo{Slice: s, Label: label, Confidence: conf})
				}
				sp.End()
			})
			if sctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, sctx.Err())
			}
			counts := p.clusterCounts(mfts)
			return func() { infos, res.ClusterCounts = out, counts }, nil
		}},

		// Stage 4: concatenate fields into messages. Each tree is built by
		// one worker (fields.Build inverts the tree in place); the shared
		// resolver is read-only. Config files the resolver had to skip are
		// recorded as degradation notes.
		{StageConcat, nil, func(sctx context.Context) (func(), error) {
			resolver, notes := ResolverFromImageNotes(img)
			msgs := make([]MessageResult, len(trees))
			parallel.ForEach(sctx, workers, len(trees), func(i int) {
				sp := obs.StartChild(sctx, "build-message")
				sp.AddString("fn", mfts[i].Site.Fn.Name())
				msgs[i] = MessageResult{
					MFT: mfts[i], Tree: trees[i], Slices: allSlices[i],
					Infos: infos[i], Message: fields.Build(trees[i], infos[i], resolver),
				}
				met.Histogram("fields_per_message").Observe(int64(len(msgs[i].Message.Fields)))
				for _, fl := range msgs[i].Message.Fields {
					met.Counter("message_fields_total", "label", fl.Semantics).Inc()
				}
				sp.AddInt("fields", len(msgs[i].Message.Fields))
				sp.End()
			})
			if sctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, sctx.Err())
			}
			return func() {
				res.Errors = append(res.Errors, notes...)
				res.Messages = msgs
			}, nil
		}},

		// Stage 5: check message forms.
		{StageFormCheck, nil, func(sctx context.Context) (func(), error) {
			findings := make([]formcheck.Finding, len(res.Messages))
			parallel.ForEach(sctx, workers, len(res.Messages), func(i int) {
				mr := &res.Messages[i]
				sp := obs.StartChild(sctx, "check-form")
				sp.AddString("fn", mr.Message.Function)
				if mr.Message.Discarded {
					sp.SetStatus("discarded")
					sp.End()
					return
				}
				findings[i] = formcheck.Check(mr.Message, img)
				if findings[i].Verdict.Flawed() {
					met.Counter("formcheck_flagged_total", "verdict", findings[i].Verdict.String()).Inc()
				}
				sp.End()
			})
			if sctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, sctx.Err())
			}
			return func() {
				for i := range res.Messages {
					res.Messages[i].Finding = findings[i]
				}
			}, nil
		}},

		// Stage 6: lint passes over the lifted executable (opt-in), reading
		// the same facts the taint stage populated. An invalid rule
		// selection is a configuration error, not a degradation.
		{StageLint, func() bool { return prog != nil && p.opts.Lint }, func(sctx context.Context) (func(), error) {
			runner, err := lint.NewRunner(p.opts.LintRules)
			if err != nil {
				return nil, err
			}
			diags := runner.RunFacts(sctx, fx, res.Executable, workers)
			if sctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", errdefs.ErrStageTimeout, sctx.Err())
			}
			return func() { res.Diagnostics = diags }, nil
		}},

		// Stage 7: probe replay (opt-in). Every reconstructed message is
		// replayed against a simulated cloud and terminally classified; a
		// device with no known cloud spec degrades with a note instead of
		// failing. The probe package guarantees a fully classified report
		// even when the stage budget expires mid-fleet (unprobed messages
		// land as probe-failed/stage-timeout), so the commit is
		// unconditional.
		{StageProbe, func() bool { return p.opts.Probe != nil }, func(sctx context.Context) (func(), error) {
			po := *p.opts.Probe
			po.Metrics = met
			var spec *cloud.Spec
			if po.SpecFor != nil {
				spec = po.SpecFor(res.Device, res.Version)
			}
			if spec == nil {
				note := errdefs.AnalysisError{
					Stage: StageProbe.String(),
					Err:   fmt.Errorf("%w: %s %s", errdefs.ErrNoCloudSpec, res.Device, res.Version),
				}
				return func() { res.Errors = append(res.Errors, note) }, nil
			}
			msgs := make([]*fields.Message, len(res.Messages))
			for i := range res.Messages {
				msgs[i] = res.Messages[i].Message
			}
			rep, perr := probe.Device(sctx, spec, msgs, img, po)
			if perr != nil {
				note := errdefs.AnalysisError{Stage: StageProbe.String(), Err: perr}
				return func() { res.Errors = append(res.Errors, note) }, nil
			}
			return func() { res.Probe = rep }, nil
		}},
	}
	for _, st := range stages {
		if st.runs != nil && !st.runs() {
			continue // a stage that does not run opens no span
		}
		if err := p.runStage(ctx, res, st.stage, st.body); err != nil {
			return res, err
		}
	}
	return res, nil
}

// candidate is one pinpointed device-cloud executable contender, carrying
// the facts store its identification populated so later stages reuse it.
type candidate struct {
	prog     *pcode.Program
	fx       *facts.Program
	path     string
	handlers []identify.Handler
	score    float64
	// rec is the symbol-free recovery record when this executable arrived
	// stripped; nil for symbol-full binaries.
	rec *strip.Stats
}

// pinpoint lifts every binary executable on a bounded worker pool and
// returns the one with an asynchronous request handler (§IV-A). Executables
// that fail to parse, fail to lift, or panic the analyzer are skipped and
// reported, not fatal: on a hostile corpus one rotten binary must not sink
// the image. Candidates land in per-file slots and the winner is reduced in
// file order, so the selection matches a sequential sweep exactly.
func (p *Pipeline) pinpoint(ctx context.Context, met *obs.Metrics, img *image.Image) (*candidate, []errdefs.AnalysisError, error) {
	var files []*image.File
	for _, f := range img.Executables() {
		if f.IsBinary() {
			files = append(files, f) // scripts are out of scope (§V-B)
		}
	}
	met.Counter("pinpoint_candidates_total").Add(int64(len(files)))
	hints := recoveryHints(img)
	type slot struct {
		cand *candidate
		skip *errdefs.AnalysisError
	}
	slots := make([]slot, len(files))
	parallel.ForEach(ctx, parallel.CPUWorkers(p.opts.Workers), len(files), func(i int) {
		sp := obs.StartChild(ctx, "candidate")
		sp.AddString("path", files[i].Path)
		c, skip := p.liftCandidate(ctx, met, files[i], hints)
		switch {
		case skip != nil:
			sp.SetStatus("skipped")
		case c == nil:
			sp.SetStatus("not-device-cloud")
		}
		sp.End()
		slots[i] = slot{cand: c, skip: skip}
	})

	var best *candidate
	var skips []errdefs.AnalysisError
	for _, s := range slots {
		if s.skip != nil {
			skips = append(skips, *s.skip)
			continue
		}
		if s.cand == nil {
			continue // parsed fine, just not a device-cloud executable
		}
		if best == nil || s.cand.score > best.score {
			best = s.cand
		}
	}
	if best == nil {
		return nil, skips, fmt.Errorf("core: %q: %w", img.Device, ErrNoDeviceCloudExecutable)
	}
	return best, skips, nil
}

// liftCandidate parses, recovers (when stripped), lifts, and identifies one
// executable with panic recovery, so a pathological binary is reported as
// skipped instead of crashing the whole analysis.
func (p *Pipeline) liftCandidate(ctx context.Context, met *obs.Metrics, f *image.File, hints strip.Hints) (cand *candidate, skip *errdefs.AnalysisError) {
	defer func() {
		if r := recover(); r != nil {
			cand = nil
			skip = &errdefs.AnalysisError{
				Stage: StagePinpoint.String(), Path: f.Path,
				Err: fmt.Errorf("%w: %w: %v", errdefs.ErrExecutableSkipped, errdefs.ErrStagePanic, r),
			}
		}
	}()
	bin, err := binfmt.Unmarshal(f.Data)
	if err != nil {
		return nil, &errdefs.AnalysisError{
			Stage: StagePinpoint.String(), Path: f.Path,
			Err: fmt.Errorf("%w: %w: %w", errdefs.ErrExecutableSkipped, errdefs.ErrCorruptBinary, err),
		}
	}
	// Symbol-free recovery: runs when the binary is missing symbol layers
	// (auto-detection) or the operator declared the corpus stripped. On a
	// symbol-full binary every recovery analysis is a no-op, so the pass
	// cannot perturb symbol-full reports.
	var rec *strip.Stats
	if p.opts.Stripped || strip.Needed(bin) {
		sp := obs.StartChild(ctx, "strip-recover")
		sp.AddString("path", f.Path)
		rec = strip.Recover(bin, hints)
		if rec.FuncsRecovered == 0 && rec.StringsRecovered == 0 && rec.ExternsTotal == 0 {
			rec = nil // nothing was missing: keep symbol-full results untouched
			sp.SetStatus("noop")
		} else {
			met.Counter("strip_funcs_recovered_total").Add(int64(rec.FuncsRecovered))
			met.Counter("strip_strings_recovered_total").Add(int64(rec.StringsRecovered))
			met.Counter("strip_externs_bound_total").Add(int64(rec.ExternsBound))
			met.Counter("strip_externs_unbound_total").Add(int64(rec.ExternsTotal - rec.ExternsBound))
			sp.AddInt("funcs", rec.FuncsRecovered)
			sp.AddInt("externs-bound", rec.ExternsBound)
		}
		sp.End()
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		return nil, &errdefs.AnalysisError{
			Stage: StagePinpoint.String(), Path: f.Path,
			Err: fmt.Errorf("%w: %w: %w", errdefs.ErrExecutableSkipped, errdefs.ErrCorruptBinary, err),
		}
	}
	fx := facts.New(prog, facts.WithMetrics(met))
	idRes := identify.Analyze(prog, identify.WithMinScore(p.opts.MinScore), identify.WithFacts(fx))
	if !idRes.IsDeviceCloud {
		return nil, nil
	}
	score := 0.0
	for _, h := range idRes.Handlers {
		if h.Async && h.Score > score {
			score = h.Score
		}
	}
	return &candidate{prog: prog, fx: fx, path: f.Path, handlers: idRes.Handlers, score: score, rec: rec}, nil
}

// recoveryHints extracts the image-level key universes that sharpen extern
// identification on stripped binaries: NVRAM keys from nvram-shaped config
// files, configuration keys from the rest. The same path split
// ResolverFromImageNotes uses for message rendering.
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
