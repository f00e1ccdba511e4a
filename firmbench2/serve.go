package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"firmres"
	"firmres/internal/obs"
)

const (
	// serveRate is the open-loop offered load in submissions per second:
	// about half the saturation throughput of firmserve -lint on a 2-CPU
	// host. It is fixed, never derived from a run, so every commit is
	// offered the same load.
	serveRate = 90.0
	// serveRetain is firmserve's -retain: finished jobs beyond it leave the
	// journal, so resubmitting their images takes the cache prehit path. It
	// exceeds a burst, so no job is pruned before the client fetches it.
	serveRetain = 80
	// serveWarm images are analyzed during set-up, so the cache holds
	// pruned digests to resubmit from the first arrival on.
	serveWarm = serveRetain + 32
	// serveBurst is one saturation burst, under the queue bound of 256.
	serveBurst = 64
	// serveBursts saturation bursts follow the open-loop phase;
	// images_per_s is their median. A fixed count, not a time share, keeps
	// the mix of work in a run the same however busy the host is.
	serveBursts = 4
	// The open-loop mix, in exact shares: fresh images, resubmissions of
	// pruned digests (201 prehit), and the rest duplicates of recent jobs
	// (200 dedup).
	shareFresh = 0.60
	shareResub = 0.27
	// serveOpenShare of the run's seconds is the open-loop phase; the
	// bursts take about the rest.
	serveOpenShare = 0.7
)

// Submission kinds of the open-loop mix.
const (
	kindFresh = "fresh"
	kindResub = "resub"
	kindDup   = "dup"
)

// server is one firmserve process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	log  string // its stdout and stderr, with one gctrace line per GC cycle
}

// job is the subset of firmserve's job JSON the benchmark reads.
type job struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	ErrorKind   string          `json:"error_kind"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Report      json.RawMessage `json:"report"`
}

// startServer launches firmserve with -lint and a small -retain on a free
// loopback port and waits for /healthz to answer 200.
func startServer(r *run, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	log, err := os.Create(filepath.Join(dir, "firmserve.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	cmd := exec.Command(r.firmserve, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", filepath.Join(dir, "data"), "-lint", "-retain", strconv.Itoa(serveRetain))
	cmd.Stdout, cmd.Stderr = log, log
	// gctrace makes the server's allocation and GC cost visible from
	// outside: the process exposes no runtime metrics of its own.
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(os.Getenv("GODEBUG")+",gctrace=1", ","))
	// The server dies with the benchmark even on a path that skips stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, log: log.Name(), hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: r.nproc, MaxIdleConnsPerHost: r.nproc},
	}}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := s.hc.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("firmserve did not become healthy within 20s")
}

// stop drains the server with SIGTERM, kills it if it lingers, and waits
// for it to exit.
func (s *server) stop() {
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// submit POSTs one image and returns the status and the job it names.
func (s *server) submit(data []byte) (int, job, error) {
	resp, err := s.hc.Post(s.base+"/v1/images", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return 0, job{}, err
	}
	defer resp.Body.Close()
	var j job
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 == 2 {
		err = json.Unmarshal(body, &j)
	}
	return resp.StatusCode, j, err
}

// get fetches one job, with its report once done.
func (s *server) get(id string) (job, error) {
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job{}, fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	var j job
	return j, json.NewDecoder(resp.Body).Decode(&j)
}

// terminal reports whether a job state is final.
func terminal(state string) bool { return state == "done" || state == "failed" }

// pending is one accepted submission whose job the fetcher follows.
type pending struct {
	in        input
	id        string
	scheduled time.Time
	doneAtAck bool      // a prehit: done at its 2xx, followed only for the check
	span      *obs.Span // the submission's root span in a traced run
}

// fetched is a followed job once terminal, with its response body.
type fetched struct {
	pending
	job     job
	fetchMs float64
	err     error
}

// fetcher follows accepted jobs in submission order on its own goroutine,
// polling each until terminal and fetching its report before -retain can
// prune it. Checks run later, off the measured path.
type fetcher struct {
	s    *server
	in   chan pending
	out  []fetched
	done chan struct{}
}

func newFetcher(s *server) *fetcher {
	// Sized above the submissions of one phase (serveRate times a
	// minute), so the submitter never waits on the fetcher.
	f := &fetcher{s: s, in: make(chan pending, 8192), done: make(chan struct{})}
	go f.loop()
	return f
}

func (f *fetcher) loop() {
	defer close(f.done)
	for p := range f.in {
		wait := p.span.Child("serve.wait")
		var got fetched
		for {
			start := time.Now()
			sp := p.span.Child("serve.fetch")
			j, err := f.s.get(p.id)
			sp.End()
			if err != nil || terminal(j.State) {
				got = fetched{pending: p, job: j, fetchMs: ms(time.Since(start)), err: err}
				break
			}
			// Latency comes from the job's own timestamps, so polling can
			// be slow; a slow poll also keeps the server's share of polling
			// work from growing when the host is busy.
			time.Sleep(20 * time.Millisecond)
		}
		wait.End()
		p.span.End()
		f.out = append(f.out, got)
	}
}

// close waits until every followed job is fetched and returns them.
func (f *fetcher) close() []fetched {
	close(f.in)
	<-f.done
	return f.out
}

// serveState is one set-up: the corpus, the generator and a booted, warmed
// firmserve.
type serveState struct {
	g     *generator
	s     *server
	aging []aged // jobs in creation order, oldest first
	jobs  int    // jobs created so far
}

// aged is an image of devices 1-20 and the index of its latest job.
type aged struct {
	in  input
	job int
}

// runServe is the service workload: firmserve -lint on loopback, offered an
// open-loop Poisson mix at serveRate, then saturated with bursts.
func runServe(r *run) error {
	orc, err := loadOracle(r.golden, goldenFull)
	if err != nil {
		return err
	}
	setup := 0
	st, err := timeSetup(r, func() (*serveState, error) {
		setup++
		return serveSetup(r, filepath.Join(r.work, fmt.Sprintf("serve-%d", setup)))
	}, func(st *serveState) { st.s.stop() }, func(st *serveState) (float64, error) { return cpuOf(st.s.cmd.Process.Pid) })
	if err != nil {
		return err
	}
	defer st.s.stop()

	cpu0, err := cpuOf(st.s.cmd.Process.Pid)
	if err != nil {
		return err
	}
	gc0, err := readGCTrace(st.s.log)
	if err != nil {
		return err
	}
	openFor := time.Duration(float64(r.seconds) * serveOpenShare)
	var rec *obs.Recorder
	if r.traced {
		// The traced run splits the open loop: the first half untraced, the
		// second with client spans, and compares their median latencies.
		half := openFor / 2
		plain, err := st.openLoop(r, orc, half, nil)
		if err != nil {
			return err
		}
		traced, err := st.openLoop(r, orc, half, r.rec)
		if err != nil {
			return err
		}
		traced.layers(r)
		r.layers.set("trace.overhead_ratio", ratio(median(traced.latency), median(plain.latency)), len(traced.latency))
		rec = r.rec
	} else {
		ol, err := st.openLoop(r, orc, openFor, nil)
		if err != nil {
			return err
		}
		r.e2e.set("latency_p50_ms", median(ol.latency), len(ol.latency))
		r.e2e.set("latency_p99_ms", quantile(ol.latency, 0.99), len(ol.latency))
		r.e2e.set("ack_p99_ms", quantile(ol.ack, 0.99), len(ol.ack))
	}

	var rates []float64
	for len(rates) < serveBursts {
		rate, err := st.burst(r, orc, rec)
		if err != nil {
			return err
		}
		rates = append(rates, rate)
	}
	r.e2e.set("images_per_s", median(rates), len(rates))
	cpu1, err := cpuOf(st.s.cmd.Process.Pid)
	if err != nil {
		return err
	}
	gc1, err := readGCTrace(st.s.log)
	if err != nil {
		return err
	}
	answered := r.attempted - r.failed
	r.e2e.set("cpu_ms_per_image", (cpu1-cpu0)*1e3/float64(answered), answered)
	gcWindow(gc1[len(gc0):], answered, r)
	mb, err := peakRSSMB(strconv.Itoa(st.s.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.e2e.set("max_rss_mb", mb, 1)
	return nil
}

// serveSetup builds the corpus, boots a server, and analyzes serveWarm
// fresh images through it, so the oldest are pruned from the journal while
// their reports stay cached.
func serveSetup(r *run, dir string) (*serveState, error) {
	c, err := buildCorpus(false)
	if err != nil {
		return nil, err
	}
	s, err := startServer(r, dir)
	if err != nil {
		return nil, err
	}
	st := &serveState{g: newGenerator(r.seed, c), s: s}
	for i := 0; i < serveWarm; i++ {
		in := st.g.variant(1+i%numDevices, modeFull)
		code, _, err := s.submit(in.data)
		if err != nil || code != http.StatusAccepted {
			s.stop()
			return nil, fmt.Errorf("warm-up submit: status %d: %v", code, err)
		}
		st.created(in)
	}
	if err := s.waitIdle(); err != nil {
		s.stop()
		return nil, err
	}
	return st, nil
}

// waitIdle polls the queue census until no job is queued or running.
func (s *server) waitIdle() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.hc.Get(s.base + "/v1/jobs")
		if err != nil {
			return err
		}
		var census struct {
			Counts struct{ Queued, Running int } `json:"counts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&census)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if census.Counts.Queued+census.Counts.Running == 0 {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return errors.New("firmserve still busy after 60s")
}

// created records a job-creating submission of in.
func (st *serveState) created(in input) {
	st.jobs++
	if in.dev <= 20 { // 21-22 fail, and failures are never cached or deduped
		st.aging = append(st.aging, aged{in: in, job: st.jobs})
	}
}

// mix returns the kinds of n open-loop submissions in a seeded order, in
// the exact shares of the mix, so every seed offers the same work.
func (st *serveState) mix(n int) []string {
	kinds := make([]string, n)
	fresh, resub := int(float64(n)*shareFresh), int(float64(n)*shareResub)
	for i := range kinds {
		switch {
		case i < fresh:
			kinds[i] = kindFresh
		case i < fresh+resub:
			kinds[i] = kindResub
		default:
			kinds[i] = kindDup
		}
	}
	st.g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// pick draws the image for one submission of the given kind. A
// resubmission takes the oldest image whose latest job is older than the
// -retain window plus the jobs that may still be running, so it has left
// the journal; a duplicate repeats one of the four newest jobs. Without a
// candidate the submission is fresh.
func (st *serveState) pick(kind string) (input, string) {
	switch kind {
	case kindResub:
		if len(st.aging) > 0 && st.aging[0].job <= st.jobs-serveRetain-16 {
			in := st.aging[0].in
			st.aging = st.aging[1:]
			return in, kindResub
		}
	case kindDup:
		if n := len(st.aging); n >= 4 {
			return st.aging[n-1-st.g.rng.Intn(4)].in, kindDup
		}
	}
	return st.g.variant(st.g.device(), modeFull), kindFresh
}

// expected is the status each kind of submission must get.
var expected = map[string]int{kindFresh: http.StatusAccepted, kindResub: http.StatusCreated, kindDup: http.StatusOK}

// openResult is what one open-loop phase measured.
type openResult struct {
	latency, ack, late []float64 // ms
	queueWait, service []float64 // ms, from job timestamps
	fetchMs            []float64
	decodeUs           []float64
	reportBytes        []float64
	submitted          int
	prehits, dedups    int
}

// openLoop offers serveRate times d submissions as Poisson arrivals at
// serveRate, so it lasts about d. Each request is timed from its scheduled
// send time, so a stalled send delays the clock of every later one instead
// of hiding it. Latency ends at the job's finished_at, or at the 2xx of a
// prehit or dedup.
func (st *serveState) openLoop(r *run, orc *oracle, d time.Duration, rec *obs.Recorder) (*openResult, error) {
	res := &openResult{}
	f := newFetcher(st.s)
	at := time.Now()
	for _, kind := range st.mix(int(serveRate * d.Seconds())) {
		at = at.Add(time.Duration(st.g.expGap(serveRate) * float64(time.Second)))
		time.Sleep(time.Until(at))
		in, kind := st.pick(kind)
		root := rec.StartSpan(nil, "submission", obs.String("kind", kind))
		sent := time.Now()
		res.late = append(res.late, ms(sent.Sub(at)))
		sp := root.Child("serve.submit")
		code, j, err := st.s.submit(in.data)
		sp.End()
		acked := time.Now()
		res.submitted++
		r.attempted++
		if err != nil || code/100 != 2 {
			fmt.Fprintf(os.Stderr, "firmbench2: serve: %s submission: status %d: %v\n", kind, code, err)
			r.failed++
			root.End()
			continue
		}
		res.ack = append(res.ack, ms(acked.Sub(sent)))
		if code != expected[kind] {
			fmt.Fprintf(os.Stderr, "firmbench2: serve: %s submission answered %d, want %d\n", kind, code, expected[kind])
		}
		switch code {
		case http.StatusOK:
			res.dedups++
			res.latency = append(res.latency, ms(acked.Sub(at)))
			root.End()
			continue
		case http.StatusCreated:
			res.prehits++
			res.latency = append(res.latency, ms(acked.Sub(at)))
		}
		st.created(in)
		f.in <- pending{in: in, id: j.ID, scheduled: at, span: root, doneAtAck: code == http.StatusCreated}
	}
	for _, got := range f.close() {
		if err := st.check(orc, got, res, rec); err != nil {
			fmt.Fprintln(os.Stderr, "firmbench2: serve:", err)
			r.failed++
			continue
		}
		if got.doneAtAck {
			continue
		}
		res.latency = append(res.latency, ms(got.job.FinishedAt.Sub(got.scheduled)))
		res.queueWait = append(res.queueWait, ms(got.job.StartedAt.Sub(got.job.SubmittedAt)))
		res.service = append(res.service, ms(got.job.FinishedAt.Sub(got.job.StartedAt)))
	}
	return res, nil
}

// check verifies one followed job against its golden and records the
// client-side fetch figures.
func (st *serveState) check(orc *oracle, got fetched, res *openResult, rec *obs.Recorder) error {
	if got.err != nil {
		return got.err
	}
	res.fetchMs = append(res.fetchMs, got.fetchMs)
	if got.job.State == "failed" {
		if got.job.ErrorKind != outcomeNoExec {
			return fmt.Errorf("job %s (device %d) failed: %s", got.id, got.in.dev, got.job.ErrorKind)
		}
		return orc.check(goldenFull, got.in.dev, reportRecord(got.in.dev, nil))
	}
	if rec != nil {
		// Time the client's decode of the report it fetched.
		start := time.Now()
		var rep firmres.Report
		if err := json.Unmarshal(got.job.Report, &rep); err != nil {
			return err
		}
		res.decodeUs = append(res.decodeUs, float64(time.Since(start).Nanoseconds())/1e3)
		res.reportBytes = append(res.reportBytes, float64(len(got.job.Report)))
	}
	return orc.check(goldenFull, got.in.dev, reportRecord(got.in.dev, got.job.Report))
}

// layers records the serve per-layer metrics of a traced open-loop phase.
func (o *openResult) layers(r *run) {
	m := r.layers
	m.set("serve.queue_wait_ms_p99", quantile(o.queueWait, 0.99), len(o.queueWait))
	m.set("serve.service_ms_p50", median(o.service), len(o.service))
	m.set("serve.fetch_ms_p50", median(o.fetchMs), len(o.fetchMs))
	m.set("serve.prehit_ratio", ratio(float64(o.prehits), float64(o.submitted)), o.submitted)
	m.set("serve.dedup_ratio", ratio(float64(o.dedups), float64(o.submitted)), o.submitted)
	m.set("loadgen.late_ms_p99", quantile(o.late, 0.99), len(o.late))
	m.set("report.decode_us", median(o.decodeUs), len(o.decodeUs))
	m.set("report.bytes", median(o.reportBytes), len(o.reportBytes))
}

// burst submits serveBurst fresh images from nproc concurrent clients and
// returns the completions per second from the first send to the last
// finished_at.
func (st *serveState) burst(r *run, orc *oracle, rec *obs.Recorder) (float64, error) {
	ins := make([]input, serveBurst)
	for i := range ins {
		ins[i] = st.g.variant(st.g.device(), modeFull)
	}
	f := newFetcher(st.s)
	errs := make([]error, len(ins))
	first := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ins); i += r.nproc {
				root := rec.StartSpan(nil, "submission", obs.String("kind", "burst"))
				sp := root.Child("serve.submit")
				code, j, err := st.s.submit(ins[i].data)
				sp.End()
				if err != nil || code != http.StatusAccepted {
					errs[i] = fmt.Errorf("burst submission: status %d: %v", code, err)
					root.End()
					continue
				}
				f.in <- pending{in: ins[i], id: j.ID, span: root}
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		r.attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "firmbench2: serve:", err)
			r.failed++
			continue
		}
		st.created(ins[i])
	}
	var last time.Time
	n := 0
	res := &openResult{}
	for _, got := range f.close() {
		if err := st.check(orc, got, res, nil); err != nil {
			fmt.Fprintln(os.Stderr, "firmbench2: serve:", err)
			r.failed++
			continue
		}
		n++
		if got.job.FinishedAt.After(last) {
			last = got.job.FinishedAt
		}
	}
	if n == 0 {
		return 0, errors.New("no burst job finished")
	}
	return float64(n) / last.Sub(first).Seconds(), nil
}

// gcCycle is one gctrace line: the heap at the start of the cycle, at the
// end of marking, and live afterwards, and the heap goal, in MB, with the
// share of time spent in GC since the process started.
type gcCycle struct {
	start, end, live, goal, pct float64
}

// readGCTrace parses every gctrace line logged so far.
func readGCTrace(path string) ([]gcCycle, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []gcCycle
	for _, line := range strings.Split(string(b), "\n") {
		var c gcCycle
		var n int
		var pct string
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "gc" {
			continue
		}
		pct = strings.TrimSuffix(f[3], "%:")
		c.pct, _ = strconv.ParseFloat(pct, 64)
		for i, w := range f {
			switch {
			case strings.Count(w, "->") == 2 && i+1 < len(f) && f[i+1] == "MB,":
				_, err = fmt.Sscanf(strings.ReplaceAll(w, "->", " "), "%g %g %g", &c.start, &c.end, &c.live)
				n++
			case w == "goal," && i >= 2:
				c.goal, err = strconv.ParseFloat(f[i-2], 64)
				n++
			}
			if err != nil {
				return nil, fmt.Errorf("gctrace line %q: %w", line, err)
			}
		}
		if n == 2 {
			out = append(out, c)
		}
	}
	return out, nil
}

// gcWindow records the server's allocation per image over a window of
// cycles, estimated as the heap growth from each cycle's live heap to the
// end of the next cycle's marking, and in a traced run its GC figures.
func gcWindow(cycles []gcCycle, images int, r *run) {
	var alloc float64
	var goals []float64
	for i := 1; i < len(cycles); i++ {
		alloc += cycles[i].end - cycles[i-1].live
		goals = append(goals, cycles[i].goal)
	}
	n := float64(images)
	r.e2e.set("alloc_bytes_per_image", alloc*(1<<20)/n, len(cycles))
	if r.traced && len(cycles) > 0 {
		r.layers.set("runtime.gc_cycles_per_image", float64(len(cycles))/n, images)
		r.layers.set("runtime.gc_cpu_fraction", cycles[len(cycles)-1].pct/100, len(cycles))
		r.layers.set("runtime.heap_goal_mb", median(goals), len(goals))
	}
}
