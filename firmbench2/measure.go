package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtSample is one reading of the Go runtime's cumulative counters.
type rtSample struct {
	gcCycles     float64 // /gc/cycles/total:gc-cycles
	gcCPU        float64 // /cpu/classes/gc/total:cpu-seconds
	totalCPU     float64 // /cpu/classes/total:cpu-seconds
	allocBytes   float64 // /gc/heap/allocs:bytes
	allocObjects float64 // /gc/heap/allocs:objects
	heapGoal     float64 // /gc/heap/goal:bytes
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/goal:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtSample{v[0], v[1], v[2], v[3], v[4], v[5]}
}

// rtWindow accumulates runtime deltas over the measured calls only, so the
// generator's and the oracle's own allocations stay out of the figures.
type rtWindow struct {
	d        rtSample
	heapGoal []float64
}

// measure runs fn and adds its runtime deltas to the window.
func (w *rtWindow) measure(fn func()) {
	a := readRuntime()
	fn()
	b := readRuntime()
	w.d.gcCycles += b.gcCycles - a.gcCycles
	w.d.gcCPU += b.gcCPU - a.gcCPU
	w.d.totalCPU += b.totalCPU - a.totalCPU
	w.d.allocBytes += b.allocBytes - a.allocBytes
	w.d.allocObjects += b.allocObjects - a.allocObjects
	w.heapGoal = append(w.heapGoal, b.heapGoal)
}

// layers renders the window as the runtime.* per-layer metrics.
func (w *rtWindow) layers(images int, m metricSet) {
	n := float64(images)
	m.set("runtime.gc_cycles_per_image", ratio(w.d.gcCycles, n), 0)
	m.set("runtime.gc_cpu_fraction", ratio(w.d.gcCPU, w.d.totalCPU), 0)
	m.set("runtime.heap_goal_mb", median(w.heapGoal)/(1<<20), len(w.heapGoal))
	m.set("runtime.alloc_objects_per_image", ratio(w.d.allocObjects, n), 0)
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or a
// pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuSelf is the CPU time, user plus system, this process has used, in
// seconds. CPU time leaves out the time the host gives to other tenants,
// which on a shared virtual machine moves wall-clock figures far more than
// any change to the program.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuOf is the CPU time, user plus system, another process has used, in
// seconds, from /proc/<pid>/stat.
func cpuOf(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	k, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (u + k) / 100, nil
}

// metric is one reported figure with its sample count.
type metric struct {
	value float64
	n     int
}

// metricSet maps metric names to figures.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, n int) { m[name] = metric{value: v, n: n} }
