package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"firmres"
	"firmres/internal/cache"
	"firmres/internal/core"
)

const (
	// rescanVariants nonce variants of every device make up the pool the
	// set-up caches.
	rescanVariants = 4
	// rescanPool images of the pool, plus rescanFresh never-seen images
	// (one in twenty), make up one re-scan pass.
	rescanPool  = 38
	rescanFresh = 2
	// rescanSlack is the cache's headroom above the pool, in average
	// entries. Passes walk the pool in seeded rounds, so every pool entry
	// is read again within five passes, while a fresh entry is never read
	// again: with room for eight passes of fresh entries, eviction always
	// removes fresh entries and the hit ratio holds steady.
	rescanSlack = 8 * rescanFresh
)

// rescanState is one set-up: a pool of images whose reports sit in a cache
// directory capped just above the pool's size.
type rescanState struct {
	g        *generator
	dir      string
	pool     []input
	order    []int // the current round's seeded order of pool indices
	maxBytes int64
}

// runRescan is the warm re-crawl: each pass re-scans a seeded sample of a
// cached pool plus a few fresh images through WithCache, with the cache
// capped just above the pool so every fresh Put runs the eviction path.
func runRescan(r *run) error {
	orc, err := loadOracle(r.golden, goldenFull)
	if err != nil {
		return err
	}
	setup := 0
	st, err := timeSetup(r, func() (*rescanState, error) {
		setup++
		return rescanSetup(r, orc, filepath.Join(r.work, fmt.Sprintf("cache-%d", setup)))
	}, func(st *rescanState) { os.RemoveAll(st.dir) }, nil)
	if err != nil {
		return err
	}
	opts := []firmres.Option{firmres.WithLint(), firmres.WithCache(st.dir), firmres.WithCacheMaxBytes(st.maxBytes)}
	if r.traced {
		return traceRescan(r, orc, st, opts)
	}
	var passMs []float64
	var cpu float64
	var win rtWindow
	var stats firmres.CacheStats
	images := 0
	opts = append(opts, firmres.WithWorkers(r.nproc), firmres.WithCacheStats(&stats))
	deadline := time.Now().Add(r.seconds)
	for time.Now().Before(deadline) {
		ins := st.pass()
		var br *firmres.BatchReport
		win.measure(func() {
			start, c0 := time.Now(), cpuSelf()
			br, err = firmres.AnalyzeImages(context.Background(), datas(ins), opts...)
			passMs = append(passMs, ms(time.Since(start)))
			cpu += cpuSelf() - c0
		})
		if err != nil {
			return err
		}
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, br, false)
		images += len(ins)
	}
	fmt.Printf("# cache: %d hits, %d misses, %d evictions\n", stats.Hits, stats.Misses, stats.Evictions)
	passMetrics(r, passMs, rescanPool+rescanFresh)
	r.e2e.set("cpu_ms_per_image", cpu*1e3/float64(images), images)
	r.e2e.set("alloc_bytes_per_image", ratio(win.d.allocBytes, float64(images)), images)
	return r.recordRSS()
}

// rescanSetup builds the corpus and the pool, analyzes the pool into a
// fresh cache directory, and caps the cache just above what it holds.
func rescanSetup(r *run, orc *oracle, dir string) (*rescanState, error) {
	c, err := buildCorpus(false)
	if err != nil {
		return nil, err
	}
	st := &rescanState{g: newGenerator(r.seed, c), dir: dir}
	for v := 0; v < rescanVariants; v++ {
		st.pool = append(st.pool, st.g.pass(modeFull)...)
	}
	br, err := firmres.AnalyzeImages(context.Background(), datas(st.pool),
		firmres.WithLint(), firmres.WithCache(dir), firmres.WithWorkers(r.nproc))
	if err != nil {
		return nil, err
	}
	r.attempted += len(st.pool)
	r.failed += orc.checkBatch(st.pool, br, false)
	cc, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	size, err := cc.SizeBytes()
	if err != nil {
		return nil, err
	}
	st.maxBytes = size + rescanSlack*size/int64(br.Summary.Reports)
	return st, nil
}

// pass draws one re-scan pass: the next images of the pool in a seeded
// order that is reshuffled each round, and fresh variants of seeded
// devices.
func (st *rescanState) pass() []input {
	var ins []input
	for len(ins) < rescanPool {
		if len(st.order) == 0 {
			st.order = st.g.rng.Perm(len(st.pool))
		}
		ins = append(ins, st.pool[st.order[0]])
		st.order = st.order[1:]
	}
	for i := 0; i < rescanFresh; i++ {
		ins = append(ins, st.g.variant(st.g.device(), modeFull))
	}
	return ins
}

// traceRescan is the rescan workload's traced run. For the first half of
// the run it runs untraced -j 1 passes, which give the runtime figures; for
// the second half it re-scans through the cache layer directly, with spans
// around cache.KeyOf, Get and report decode, and on a miss around the layer
// replay, report encode and Put. Those passes alternate between recording
// spans and not, for the tracing overhead.
func traceRescan(r *run, orc *oracle, st *rescanState, opts []firmres.Option) error {
	ctx := context.Background()
	cc, err := cache.Open(st.dir, cache.WithMaxBytes(st.maxBytes))
	if err != nil {
		return err
	}
	fp := core.Options{Lint: true}.Fingerprint() // the key half firmres.WithLint() selects
	rp := newReplayer(true, false, 0, false)
	var passMs [2][]float64 // direct passes without and with spans
	var win rtWindow
	var lc layerCounts
	images, hits, fatal, reportBytes := 0, 0, 0, 0
	opts = append(opts, firmres.WithWorkers(1))
	half, end := time.Now().Add(r.seconds/2), time.Now().Add(r.seconds)
	for time.Now().Before(half) {
		ins := st.pass()
		var br *firmres.BatchReport
		win.measure(func() {
			br, err = firmres.AnalyzeImages(ctx, datas(ins), opts...)
		})
		if err != nil {
			return err
		}
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, br, false)
		images += len(ins)
	}
	win.layers(images, r.layers)
	evicted0 := cc.Stats().Evictions
	images = 0
	for pass := 0; time.Now().Before(end); pass++ {
		ins := st.pass()
		rec := r.rec
		if pass%2 == 0 {
			rec = nil
		}
		results := make([]firmres.ImageResult, len(ins))
		start := time.Now()
		for i, in := range ins {
			root := rec.StartSpan(nil, "rescan")
			sp := root.Child("cache.key")
			key := cache.KeyOf(in.data, fp)
			sp.End()
			sp = root.Child("cache.get")
			val, _ := cc.Get(key) // a corrupt entry reads as a miss, as in the program
			sp.End()
			if val != nil {
				hits++
				reportBytes += len(val)
				var rep firmres.Report
				sp = root.Child("report.decode")
				err = json.Unmarshal(val, &rep)
				sp.End()
				results[i] = imageResult(&rep, err)
				root.End()
				continue
			}
			rep, c, err := rp.run(ctx, rec, root, in.data)
			if rec != nil {
				lc.add(c)
			}
			results[i] = imageResult(rep, err)
			if err != nil {
				fatal++
				root.End()
				continue
			}
			sp = root.Child("report.encode")
			buf, err := json.Marshal(rep)
			sp.End()
			if err == nil {
				sp = root.Child("cache.put")
				err = cc.Put(key, buf)
				sp.End()
			}
			if err != nil {
				return err
			}
			root.End()
		}
		passMs[pass%2] = append(passMs[pass%2], ms(time.Since(start)))
		r.attempted += len(ins)
		r.failed += orc.checkBatch(ins, &firmres.BatchReport{Images: results}, false)
		images += len(ins)
	}
	lc.set(r.layers, layerTimes(r.rec.Spans(), r.layers))
	n := float64(images)
	r.layers.set("cache.hit_ratio", ratio(float64(hits), n), images)
	r.layers.set("cache.evictions", ratio(float64(cc.Stats().Evictions-evicted0), n), images)
	r.layers.set("cache.recomputed_fatal", ratio(float64(fatal), n), images)
	r.layers.set("report.bytes", ratio(float64(reportBytes), float64(hits)), hits)
	r.layers.set("trace.overhead_ratio", ratio(median(passMs[1]), median(passMs[0])), len(passMs[1]))
	return nil
}
