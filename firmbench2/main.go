// Command firmbench2 is the repository benchmark: it runs one workload
// against the firmres library or the firmserve binary, checks every output
// against testdata/golden, and prints every metric by name, unit and sample
// count. The last line of standard output is one JSON object with the
// fields correct, attempted, failed and metrics.
//
// A plain run (-trace 0) measures the end-to-end metrics with tracing off.
// A traced run (-trace 1) records spans around each layer's public calls,
// writes them as a Chrome trace, and reports the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash firmbench2/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firmres/internal/obs"
)

// endToEnd lists the metrics a plain run reports for every workload, with
// their units; BENCHMARK.json bounds each of them. Apart from the set-up
// time the contract requires, they are costs that depend only on the work
// done — allocation and peak memory — because on a shared virtual machine
// the host's load moves every time, CPU time included, by more than a
// regression bound can absorb (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"alloc_bytes_per_image", "B"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// ungated are the remaining end-to-end figures: CPU time, wall-clock rates
// and latencies, and figures that exist only on some workloads. They are
// printed in the table but not in the JSON line.
var ungated = []struct{ name, unit string }{
	{"cpu_ms_per_image", "ms"},
	{"images_per_s", "images/s"},
	{"images_per_s_j1", "images/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"cpu_ms_per_image_j1", "ms"},
	{"setup_wall_s", "s"},
	{"fail_ratio", "ratio"},
}

// perLayer lists the traced run's metrics. Times are the median self time
// per image in microseconds; counts are per image. A layer a workload does
// not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"image.unpack_us", "us"},
	{"binfmt.unmarshal_us", "us"},
	{"strip.recover_us", "us"},
	{"strip.funcs_recovered", "count"},
	{"pcode.lift_us", "us"},
	{"pcode.ops", "count"},
	{"facts.cfg_us", "us"},
	{"facts.defuse_us", "us"},
	{"facts.dom_us", "us"},
	{"facts.constprop_us", "us"},
	{"facts.hit_ratio", "ratio"},
	{"identify.us", "us"},
	{"taint.us", "us"},
	{"taint.mfts", "count"},
	{"mft.us", "us"},
	{"slices.us", "us"},
	{"slices.count", "count"},
	{"semantics.us", "us"},
	{"semantics.us_per_slice", "us"},
	{"fields.us", "us"},
	{"formcheck.us", "us"},
	{"lint.us", "us"},
	{"lint.diags", "count"},
	{"probe.us", "us"},
	{"probe.probes", "count"},
	{"probe.failed", "count"},
	{"cache.key_us", "us"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.recomputed_fatal", "count"},
	{"report.encode_us", "us"},
	{"report.decode_us", "us"},
	{"report.bytes", "B"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.fetch_ms_p50", "ms"},
	{"serve.prehit_ratio", "ratio"},
	{"serve.dedup_ratio", "ratio"},
	{"runtime.gc_cycles_per_image", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_goal_mb", "MB"},
	{"runtime.alloc_objects_per_image", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// setups is how many times each run repeats its set-up; setup_s is their
// median, so a single slow set-up does not move it.
const setups = 5

// run is the state of one benchmark invocation.
type run struct {
	seed      int64
	seconds   time.Duration
	traced    bool
	golden    string
	firmserve string
	work      string
	nproc     int

	rec       *obs.Recorder // span sink of a traced run, nil otherwise
	e2e       metricSet
	layers    metricSet
	attempted int
	failed    int
}

var workloads = map[string]func(*run) error{
	"crawl":  runCrawl,
	"rescan": runRescan,
	"serve":  runServe,
	"probe":  runProbe,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name      = flag.String("workload", "", "workload: crawl, rescan, serve or probe")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 20, "measured seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		golden    = flag.String("golden", "testdata/golden", "golden report directory")
		firmserve = flag.String("firmserve", ".bench_build/firmserve", "firmserve binary (serve workload)")
		work      = flag.String("work", ".bench_build/work", "scratch directory for caches, server data and traces")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "firmbench2: need -workload crawl|rescan|serve|probe, -seconds >= 1, -trace 0|1")
		return 2
	}
	if _, err := os.Stat(*golden); err != nil {
		fmt.Fprintln(os.Stderr, "firmbench2:", err)
		return 1
	}
	dir, err := os.MkdirTemp(mkdir(*work), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmbench2:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		golden: *golden, firmserve: *firmserve, work: dir, nproc: runtime.NumCPU(),
		e2e: metricSet{}, layers: metricSet{},
	}
	if r.traced {
		r.rec = obs.NewRecorder()
	}
	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "firmbench2: %s: %v\n", *name, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(mkdir(filepath.Join(*work, "..", "traces")), fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeTrace(path, r.rec.Spans()); err != nil {
			fmt.Fprintln(os.Stderr, "firmbench2: trace:", err)
			return 1
		}
		fmt.Printf("# chrome trace: %s\n", path)
	}
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "firmbench2: no operation completed")
		return 1
	}
	r.e2e.set("fail_ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	return report(*name, r)
}

// report prints the metric table and the closing JSON line.
func report(name string, r *run) int {
	fmt.Printf("# workload=%s seed=%d seconds=%v trace=%t GOMAXPROCS=%d GOGC=%q nproc=%d\n",
		name, r.seed, r.seconds.Seconds(), r.traced, runtime.GOMAXPROCS(0), os.Getenv("GOGC"), r.nproc)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	table := func(set metricSet, defs []struct{ name, unit string }, inJSON bool) {
		for _, d := range defs {
			m, ok := set[d.name]
			if ok || inJSON {
				fmt.Printf("%-34s %16.6g %-9s n=%d\n", d.name, m.value, d.unit, m.n)
			}
			if inJSON {
				out[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
			}
		}
	}
	if r.traced {
		table(r.layers, perLayer, true)
	} else {
		for _, d := range endToEnd {
			if _, ok := r.e2e[d.name]; !ok {
				fmt.Fprintf(os.Stderr, "firmbench2: %s did not measure %s\n", name, d.name)
				return 1
			}
		}
		table(r.e2e, endToEnd, true)
		table(r.e2e, ungated, false)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmbench2:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first use
	return dir
}

// timeSetup runs setup setups times and keeps the last set-up's state;
// earlier ones are released with drop. setup_s is the median CPU time a
// set-up costs: this process's, plus what childCPU (may be nil) reports
// for a server the set-up started. setup_wall_s is the median wall time.
func timeSetup[T any](r *run, setup func() (T, error), drop func(T), childCPU func(T) (float64, error)) (T, error) {
	var last T
	var cpu, wall []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			drop(last)
		}
		start, c0 := time.Now(), cpuSelf()
		v, err := setup()
		if err != nil {
			return v, err
		}
		took, used := time.Since(start).Seconds(), cpuSelf()-c0
		if childCPU != nil {
			c, err := childCPU(v)
			if err != nil {
				return v, err
			}
			used += c
		}
		cpu, wall = append(cpu, used), append(wall, took)
		last = v
	}
	r.e2e.set("setup_s", median(cpu), len(cpu))
	r.e2e.set("setup_wall_s", median(wall), len(wall))
	return last, nil
}

// recordRSS records the benchmark process's own peak RSS.
func (r *run) recordRSS() error {
	mb, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.e2e.set("max_rss_mb", mb, 1)
	return nil
}
