package main

import (
	"context"
	"strings"
	"time"

	"firmres"
	"firmres/internal/errdefs"
)

// runCrawl is the cold sweep: each pass analyzes fresh variants of the 22
// symbol-full devices and their 22 stripped twins in one AnalyzeImages call
// with lint and stripped mode and no cache. Passes alternate between -j 1
// and -j nproc.
func runCrawl(r *run) error {
	orc, err := loadOracle(r.golden, goldenFull, goldenStripped)
	if err != nil {
		return err
	}
	opts := []firmres.Option{firmres.WithLint(), firmres.WithStrippedMode()}
	modes := []string{modeFull, modeStripped}
	g, err := timeSetup(r, func() (*generator, error) { return batchSetup(r, orc, modes, opts, false) }, func(*generator) {}, nil)
	if err != nil {
		return err
	}
	if r.traced {
		return traceBatch(r, g, orc, modes, opts, false, newReplayer(true, true, 0, false))
	}
	return measureBatch(r, g, orc, modes, opts, false, true)
}

// runProbe is the §V replay: each pass analyzes fresh variants of the 22
// symbol-full devices with the probe stage on (chaos off) at -j nproc and
// nproc probers per device.
func runProbe(r *run) error {
	orc, err := loadOracle(r.golden, goldenProbe)
	if err != nil {
		return err
	}
	opts := []firmres.Option{firmres.WithProbe(), firmres.WithProbeProbers(r.nproc)}
	modes := []string{modeFull}
	g, err := timeSetup(r, func() (*generator, error) { return batchSetup(r, orc, modes, opts, true) }, func(*generator) {}, nil)
	if err != nil {
		return err
	}
	if r.traced {
		return traceBatch(r, g, orc, modes, opts, true, newReplayer(false, false, r.nproc, true))
	}
	return measureBatch(r, g, orc, modes, opts, true, false)
}

// batchSetup builds the corpus and runs one checked, unmeasured warm-up
// pass at -j nproc, so code paths, pools and caches inside the program are
// warm before timing; it returns the seeded generator for the run.
func batchSetup(r *run, orc *oracle, modes []string, opts []firmres.Option, probe bool) (*generator, error) {
	c, err := buildCorpus(len(modes) > 1)
	if err != nil {
		return nil, err
	}
	g := newGenerator(r.seed, c)
	ins := g.pass(modes...)
	br, err := firmres.AnalyzeImages(context.Background(), datas(ins), append(opts, firmres.WithWorkers(r.nproc))...)
	if err != nil {
		return nil, err
	}
	r.attempted += len(ins)
	r.failed += orc.checkBatch(ins, br, probe)
	return g, nil
}

// measureBatch runs AnalyzeImages passes until the run's time is up and
// records the end-to-end metrics. With twoLegs, even passes run at -j 1
// and odd ones at -j nproc; otherwise every pass runs at -j nproc. probe
// selects the probe goldens.
func measureBatch(r *run, g *generator, orc *oracle, modes []string, opts []firmres.Option, probe, twoLegs bool) error {
	var legs [2][]float64 // pass wall milliseconds at -j 1 and at -j nproc
	var cpuSec, legImages [2]float64
	var win rtWindow
	images, perPass := 0, 0
	deadline := time.Now().Add(r.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		ins := g.pass(modes...)
		leg, j := 1, r.nproc
		if twoLegs && i%2 == 0 {
			leg, j = 0, 1
		}
		var br *firmres.BatchReport
		var err error
		var took time.Duration
		var cpu float64
		win.measure(func() {
			start, c0 := time.Now(), cpuSelf()
			br, err = firmres.AnalyzeImages(context.Background(), datas(ins), append(opts, firmres.WithWorkers(j))...)
			took, cpu = time.Since(start), cpuSelf()-c0
		})
		if err != nil {
			return err
		}
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, br, probe)
		legs[leg] = append(legs[leg], ms(took))
		cpuSec[leg] += cpu
		legImages[leg] += float64(len(ins))
		images += len(ins)
		perPass = len(ins)
	}
	passMetrics(r, legs[1], perPass)
	r.e2e.set("cpu_ms_per_image", cpuSec[1]*1e3/legImages[1], int(legImages[1]))
	if twoLegs {
		r.e2e.set("images_per_s_j1", float64(perPass)/median(legs[0])*1e3, len(legs[0]))
		r.e2e.set("cpu_ms_per_image_j1", cpuSec[0]*1e3/legImages[0], int(legImages[0]))
	}
	r.e2e.set("alloc_bytes_per_image", ratio(win.d.allocBytes, float64(images)), images)
	return r.recordRSS()
}

// passMetrics records throughput and latency from per-pass wall
// milliseconds. A batch's latency is the time from the call to its reports.
func passMetrics(r *run, passMs []float64, perPass int) {
	r.e2e.set("images_per_s", float64(perPass)/median(passMs)*1e3, len(passMs))
	r.e2e.set("latency_p50_ms", median(passMs), len(passMs))
	r.e2e.set("latency_p99_ms", quantile(passMs, 0.99), len(passMs))
}

// traceBatch is the traced run of a batch workload. For the first half of
// the run it runs untraced -j 1 AnalyzeImages passes, which give the
// runtime figures; for the second half it runs the layer replay of fresh
// inputs, whose spans give the per-layer times. Replay passes alternate
// between recording spans and not, and the ratio of their median pass
// times is the tracing overhead. The halves run in this order so the
// recorded spans do not swell the heap the runtime figures see.
func traceBatch(r *run, g *generator, orc *oracle, modes []string, opts []firmres.Option, probe bool, rp *replayer) error {
	ctx := context.Background()
	var passMs [2][]float64 // replay passes without and with spans
	var win rtWindow
	var lc layerCounts
	images := 0
	opts = append(opts, firmres.WithWorkers(1))
	half, end := time.Now().Add(r.seconds/2), time.Now().Add(r.seconds)
	for time.Now().Before(half) {
		ins := g.pass(modes...)
		var br *firmres.BatchReport
		var err error
		win.measure(func() {
			br, err = firmres.AnalyzeImages(ctx, datas(ins), opts...)
		})
		if err != nil {
			return err
		}
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, br, probe)
		images += len(ins)
	}
	win.layers(images, r.layers)
	for pass := 0; time.Now().Before(end); pass++ {
		ins := g.pass(modes...)
		traced := pass%2 == 1
		rec := r.rec
		if !traced {
			rec = nil
		}
		start := time.Now()
		results := make([]firmres.ImageResult, len(ins))
		for i, in := range ins {
			rep, c, err := rp.run(ctx, rec, nil, in.data)
			results[i] = imageResult(rep, err)
			if traced {
				lc.add(c)
			}
		}
		passMs[pass%2] = append(passMs[pass%2], ms(time.Since(start)))
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, &firmres.BatchReport{Images: results}, probe)
	}
	lc.set(r.layers, layerTimes(r.rec.Spans(), r.layers))
	r.layers.set("trace.overhead_ratio", ratio(median(passMs[1]), median(passMs[0])), len(passMs[1]))
	return factsHitRatio(r, g, modes, opts)
}

// imageResult folds a replay outcome into the batch result shape the
// oracle checks.
func imageResult(rep *firmres.Report, err error) firmres.ImageResult {
	if err != nil {
		return firmres.ImageResult{Kind: errdefs.Kind(err), Error: err.Error(), Err: err}
	}
	return firmres.ImageResult{Report: rep}
}

func (lc *layerCounts) add(o layerCounts) {
	lc.images += o.images
	lc.funcsRecovered += o.funcsRecovered
	lc.ops += o.ops
	lc.mfts += o.mfts
	lc.slices += o.slices
	lc.diags += o.diags
	lc.probes += o.probes
	lc.probeFailed += o.probeFailed
}

// set records the counts per replayed image, and the semantics time per
// slice from the layers' total self times in microseconds.
func (lc layerCounts) set(m metricSet, totalUs map[string]float64) {
	counts(m, lc.images, map[string]int{
		"strip.funcs_recovered": lc.funcsRecovered,
		"pcode.ops":             lc.ops,
		"taint.mfts":            lc.mfts,
		"slices.count":          lc.slices,
		"lint.diags":            lc.diags,
		"probe.probes":          lc.probes,
		"probe.failed":          lc.probeFailed,
	})
	m.set("semantics.us_per_slice", ratio(totalUs["semantics.us"], float64(lc.slices)), lc.slices)
}

// factsHitRatio runs one untimed pass with the program's own metrics on and
// records the share of facts-store requests served without a build.
func factsHitRatio(r *run, g *generator, modes []string, opts []firmres.Option) error {
	br, err := firmres.AnalyzeImages(context.Background(), datas(g.pass(modes...)), append(opts, firmres.WithMetrics())...)
	if err != nil {
		return err
	}
	var req, built int64
	for k, v := range br.Summary.Metrics {
		switch {
		case strings.HasPrefix(k, "facts_requests_total"):
			req += v
		case strings.HasPrefix(k, "facts_builds_total"):
			built += v
		}
	}
	r.layers.set("facts.hit_ratio", ratio(float64(req-built), float64(req)), int(req))
	return nil
}
