package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
	"firmres/internal/obs"
	"firmres/internal/parallel"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/strip"
	"firmres/internal/taint"
)

// runStage executes one pipeline stage inline under the caller's context,
// with panic recovery, inside the stage's span.
//
// The stage body must not mutate shared state directly: it returns a commit
// closure that runStage applies only while the caller's context is live, so
// a stage that panicked or was cut short by cancellation leaves the Result
// as the last committed stage did. Stage bodies that fan out onto worker
// pools (parallel.ForEach) keep these semantics: the pool returns only once
// every claimed index has finished, a worker panic is re-raised on the
// calling goroutine and lands in the recover below, and cancellation stops
// the pool from claiming new work. Once runStage returns, nothing the stage
// started is still running.
//
// runStage is the one place that tells a degraded stage from a fatal one. A
// stage that panicked while the caller's context is live is appended to
// res.Errors and runStage returns nil: the analysis continues on whatever
// earlier stages recovered. The error return means the analysis must stop —
// the caller's context ended (wrapped in errdefs.ErrStageTimeout) or the
// stage body reported a fatal error.
func (p *Pipeline) runStage(ctx context.Context, res *Result, s Stage, fn func(context.Context) (func(), error)) error {
	// Stage span: a child of the image span the caller put on ctx, and the
	// stage's only wall-clock record. The stage body receives the span
	// through its context, so inner-loop grandchildren (taint sites, lint
	// functions, ...) nest under it when a trace records them.
	sp := obs.FromContext(ctx).Child(s.String())
	defer sp.End()
	commit, err := func() (commit func(), err error) {
		defer func() {
			if r := recover(); r != nil {
				commit, err = nil, fmt.Errorf("%w: %v", errdefs.ErrStagePanic, r)
			}
		}()
		return fn(obs.ContextWith(ctx, sp))
	}()
	if cerr := ctx.Err(); cerr != nil {
		// The stage's loops may have stopped early, so what it returned may
		// be cut short: commit none of it.
		sp.SetStatus("fatal")
		return fmt.Errorf("core: %w: %s: %w", errdefs.ErrStageTimeout, s, cerr)
	}
	// Apply whatever the stage recovered even when it also reports an
	// error: pinpoint records skipped executables alongside a fatal
	// "nothing found".
	if commit != nil {
		commit()
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errdefs.ErrStagePanic):
		sp.SetStatus("panic")
		res.Errors = append(res.Errors, errdefs.AnalysisError{Stage: s.String(), Err: err})
		return nil
	default:
		sp.SetStatus("fatal")
		return err
	}
}

// AnalyzeImageContext runs the pipeline over one unpacked firmware image
// under ctx, degrading gracefully: a stage that panics is recorded in
// Result.Errors and the remaining stages run on whatever was recovered. The
// error return is reserved for fatal conditions — a caller context that
// ended (wrapped in errdefs.ErrStageTimeout) or an image with no
// device-cloud executable.
//
// Intra-stage work fans out on Options.Workers-bounded pools; every stage
// collects into input-indexed slots, so the result is identical at any
// worker count.
//
// Each stage that runs opens a span under the span ctx carries, the
// caller's image span; with none, the analysis records no spans.
func (p *Pipeline) AnalyzeImageContext(ctx context.Context, img *image.Image) (res *Result, err error) {
	res = &Result{Device: img.Device, Version: img.Version}
	var met *obs.Metrics
	if p.opts.Metrics {
		met = obs.NewMetrics()
	}
	defer func() {
		// Degradation accounting happens once, after every stage ran:
		// errors_total{kind,stage} covers skipped executables, panicked
		// stages, and unparseable config files alike.
		for _, ae := range res.Errors {
			met.Counter("errors_total", "kind", ae.Kind(), "stage", ae.Stage).Inc()
		}
		if met != nil {
			res.Metrics = met.Snapshot()
		}
	}()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("core: %w: %w", errdefs.ErrStageTimeout, err)
	}
	workers := parallel.CPUWorkers(p.opts.Workers)
	resolve := imageResolver(img)

	// What each stage hands to the later ones. Only stage commits write
	// these, so a stage that panicked leaves them as the last committed
	// stage did.
	var (
		prog      *pcode.Program
		fx        *facts.Program
		mfts      []*taint.MFT
		trees     []*mft.Tree
		allSlices [][]slices.Slice
		infos     [][]fields.SliceInfo
	)
	stages := []struct {
		stage Stage
		runs  func() bool // nil: the stage always runs
		body  func(context.Context) (func(), error)
	}{
		// Stage 1: pinpoint the device-cloud executable. Corrupt or
		// panicking candidates are skipped per-executable; only a complete
		// sweep that finds nothing is fatal.
		{StagePinpoint, nil, func(sctx context.Context) (func(), error) {
			cand, skips, err := p.pinpoint(sctx, met, img, resolve)
			return func() {
				res.Errors = append(res.Errors, skips...)
				if cand != nil {
					prog, fx = cand.fx.Prog(), cand.fx
					res.set = cand.fx
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
			ms, ts, sls := traceMessages(sctx, fx, workers, met)
			return func() {
				mfts, trees, allSlices = ms, ts, sls
				// One slot per tree even if recover-semantics degrades, so
				// concatenate-fields builds every message unlabelled.
				infos = make([][]fields.SliceInfo, len(ts))
			}, nil
		}},

		// Stage 3: recover field semantics. Per-message classification fans
		// out; the classifier must be safe for concurrent use (see Options).
		// It enriches through the winner's facts store, whose set keeps the
		// enrichment until the Result is released.
		{StageSemantics, nil, func(sctx context.Context) (func(), error) {
			out := classifySlices(sctx, fx, semantics.Observed(p.opts.Classifier, met), mfts, allSlices, workers)
			counts := clusterCounts(mfts)
			return func() { infos, res.ClusterCounts = out, counts }, nil
		}},

		// Stage 4: concatenate fields into messages. Each tree is built by
		// one worker (fields.Build inverts the tree in place); the shared
		// resolver is read-only. Config files the resolver had to skip are
		// recorded as degradation notes.
		{StageConcat, nil, func(sctx context.Context) (func(), error) {
			resolver, notes := resolve()
			msgs := buildMessages(sctx, fx, mfts, trees, allSlices, infos, resolver, met, workers)
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
			return func() { res.Diagnostics = diags }, nil
		}},

		// Stage 7: probe replay (opt-in). Every reconstructed message is
		// replayed against a simulated cloud and terminally classified; a
		// device with no known cloud spec degrades with a note instead of
		// failing. A caller context that ends mid-fleet makes the analysis
		// fatal in runStage, so the report it would have committed, with
		// its unprobed remainder back-filled, is dropped.
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

// traceMessages is the identify-fields stage over the store fx: it traces
// the program's delivery sites, splits the MFTs per message and
// simplifies and slices each tree, one tree per worker. Everything it
// returns is carved from fx's scratch, so it lives as long as fx's set.
func traceMessages(ctx context.Context, fx *facts.Program, workers int, met *obs.Metrics) ([]*taint.MFT, []*mft.Tree, [][]slices.Slice) {
	engine := taint.NewEngineFacts(fx, taint.Options{})
	var ms []*taint.MFT
	for _, m := range engine.AnalyzeContext(ctx, workers) {
		ms = append(ms, mft.Split(m)...)
	}
	met.Counter("mfts_total").Add(int64(len(ms)))
	ts := make([]*mft.Tree, len(ms))
	sls := make([][]slices.Slice, len(ms))
	parallel.ForEach(ctx, workers, len(ms), func(i int) {
		sp := obs.StartChild(ctx, "mft-simplify")
		sp.AddString("fn", ms[i].Site.Fn.Name())
		ts[i] = mft.Simplify(ms[i])
		sls[i] = slices.Generate(ts[i])
		sp.AddInt("slices", len(sls[i]))
		sp.End()
	})
	return ms, ts, sls
}

// classifySlices is the recover-semantics stage: it labels every slice of
// every tree, one tree per worker, in slice-info lists carved from the
// scratch of fx, the store the trees were traced through.
func classifySlices(ctx context.Context, fx *facts.Program, classify semantics.Classifier, mfts []*taint.MFT, sls [][]slices.Slice, workers int) [][]fields.SliceInfo {
	st := storeOf(fx)
	out := make([][]fields.SliceInfo, len(sls))
	parallel.ForEach(ctx, workers, len(sls), func(i int) {
		sp := obs.StartChild(ctx, "classify")
		sp.AddString("fn", mfts[i].Site.Fn.Name())
		sp.AddInt("slices", len(sls[i]))
		out[i] = st.infoList(len(sls[i]))
		for j, s := range sls[i] {
			label, conf := classify.Classify(s)
			out[i][j] = fields.SliceInfo{Slice: s, Label: label, Confidence: conf}
		}
		sp.End()
	})
	return out
}

// buildMessages is the concatenate-fields stage: it builds the message of
// every tree, one tree per worker, into a result list carved from the
// scratch of fx, the store the trees were traced through.
func buildMessages(ctx context.Context, fx *facts.Program, mfts []*taint.MFT, trees []*mft.Tree, sls [][]slices.Slice,
	infos [][]fields.SliceInfo, resolver fields.Resolver, met *obs.Metrics, workers int) []MessageResult {
	msgs := storeOf(fx).resultList(len(trees))
	parallel.ForEach(ctx, workers, len(trees), func(i int) {
		sp := obs.StartChild(ctx, "build-message")
		sp.AddString("fn", mfts[i].Site.Fn.Name())
		msgs[i] = MessageResult{
			MFT: mfts[i], Tree: trees[i], Slices: sls[i],
			Infos: infos[i], Message: fields.Build(trees[i], infos[i], resolver),
		}
		met.Histogram("fields_per_message").Observe(int64(len(msgs[i].Message.Fields)))
		for _, fl := range msgs[i].Message.Fields {
			met.Counter("message_fields_total", "label", fl.Semantics).Inc()
		}
		sp.AddInt("fields", len(msgs[i].Message.Fields))
		sp.End()
	})
	return msgs
}

// candidate is one pinpointed device-cloud executable contender, carrying
// its set: the lifted program and the facts store its identification
// populated, so later stages reuse it.
type candidate struct {
	fx       *facts.Program
	path     string
	handlers []identify.Handler
	score    float64
	// rec is the symbol-free recovery record when this executable arrived
	// missing a symbol layer; nil for symbol-full binaries.
	rec *strip.Stats
}

// pinpoint lifts every binary executable on a bounded worker pool and
// returns the one with an asynchronous request handler (§IV-A). Executables
// that fail to parse, fail to lift, or panic the analyzer are skipped and
// reported, not fatal: on a hostile corpus one rotten binary must not sink
// the image. Candidates land in per-file slots and the winner is reduced in
// file order, so the selection matches a sequential sweep exactly.
func (p *Pipeline) pinpoint(ctx context.Context, met *obs.Metrics, img *image.Image, resolve func() (*fields.MapResolver, []errdefs.AnalysisError)) (*candidate, []errdefs.AnalysisError, error) {
	var files []*image.File
	for _, f := range img.Executables() {
		if f.IsBinary() {
			files = append(files, f) // scripts are out of scope (§V-B)
		}
	}
	met.Counter("pinpoint_candidates_total").Add(int64(len(files)))
	// The key universes only sharpen symbol-free recovery: they are built
	// once, by the first binary that needs recovery, from the image's
	// resolver, and never for an image whose binaries all carry their
	// symbols.
	hints := sync.OnceValue(func() strip.Hints {
		r, _ := resolve()
		return recoveryHints(r)
	})
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
	// Pinpoint owns every candidate but the winner: nothing reads a loser
	// after selection, so its set goes back to the free list.
	for _, s := range slots {
		if s.cand != nil && s.cand != best {
			s.cand.fx.Release()
		}
	}
	if best == nil {
		return nil, skips, fmt.Errorf("core: %q: %w", img.Device, ErrNoDeviceCloudExecutable)
	}
	return best, skips, nil
}

// liftCandidate parses, recovers (when a symbol layer is missing), lifts,
// and identifies one executable with panic recovery, so a pathological
// binary is reported as skipped instead of crashing the whole analysis.
// It lifts into a set from the process's free list and gives the set back
// at once unless the executable is a device-cloud candidate.
func (p *Pipeline) liftCandidate(ctx context.Context, met *obs.Metrics, f *image.File, hints func() strip.Hints) (cand *candidate, skip *errdefs.AnalysisError) {
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
	// Symbol-free recovery runs exactly when the binary is missing a symbol
	// layer, so symbol-full binaries skip it and their reports never change.
	var rec *strip.Stats
	if strip.Needed(bin) {
		sp := obs.StartChild(ctx, "strip-recover")
		sp.AddString("path", f.Path)
		rec = strip.Recover(bin, hints())
		if rec.FuncsRecovered == 0 && rec.StringsRecovered == 0 && rec.ExternsTotal == 0 {
			rec = nil // the missing layer held nothing to recover
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
	fx, err := facts.Lift(bin, facts.WithMetrics(met))
	if err != nil {
		return nil, &errdefs.AnalysisError{
			Stage: StagePinpoint.String(), Path: f.Path,
			Err: fmt.Errorf("%w: %w: %w", errdefs.ErrExecutableSkipped, errdefs.ErrCorruptBinary, err),
		}
	}
	idRes := identify.Analyze(fx.Prog(), identify.WithFacts(fx))
	if !idRes.IsDeviceCloud {
		fx.Release()
		return nil, nil
	}
	score := 0.0
	for _, h := range idRes.Handlers {
		if h.Async && h.Score > score {
			score = h.Score
		}
	}
	return &candidate{fx: fx, path: f.Path, handlers: idRes.Handlers, score: score, rec: rec}, nil
}

// imageResolver returns the reader of img's resolver (see
// ResolverFromImageNotes), which parses the image's configuration files on
// its first call, so symbol-free recovery and the concat stage share one
// parse.
func imageResolver(img *image.Image) func() (*fields.MapResolver, []errdefs.AnalysisError) {
	return sync.OnceValues(func() (*fields.MapResolver, []errdefs.AnalysisError) {
		return ResolverFromImageNotes(img)
	})
}

// recoveryHints takes the key universes that sharpen extern identification
// on stripped binaries from the resolver's NVRAM and configuration values.
func recoveryHints(r *fields.MapResolver) strip.Hints {
	h := strip.Hints{
		NVRAMKeys:  make(map[string]bool, len(r.NVRAM)),
		ConfigKeys: make(map[string]bool, len(r.Config)),
	}
	for k := range r.NVRAM {
		h.NVRAMKeys[k] = true
	}
	for k := range r.Config {
		h.ConfigKeys[k] = true
	}
	return h
}
