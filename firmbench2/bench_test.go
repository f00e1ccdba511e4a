package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"firmres"
	"firmres/internal/obs"
)

const goldenDir = "../testdata/golden"

func testCorpus(t *testing.T, stripped bool) *corpusImages {
	t.Helper()
	c, err := buildCorpus(stripped)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeneratorDeterministic(t *testing.T) {
	c := testCorpus(t, true)
	draw := func(seed int64) (out [][]byte, picks []int, gaps []float64) {
		g := newGenerator(seed, c)
		for _, in := range g.pass(modeFull, modeStripped) {
			out = append(out, in.data)
		}
		return out, g.rng.Perm(88), []float64{g.expGap(90), g.expGap(90)}
	}
	a, pa, ga := draw(7)
	b, pb, gb := draw(7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 gave different bytes for input %d", i)
		}
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("seed 7 gave different samples: %v vs %v", pa, pb)
		}
	}
	if ga[0] != gb[0] || ga[1] != gb[1] {
		t.Fatalf("seed 7 gave different arrival gaps")
	}
	other, _, _ := draw(8)
	if bytes.Equal(a[0], other[0]) {
		t.Fatal("seeds 7 and 8 gave the same first image")
	}
	// Every variant of one seed is distinct, so each one is a fresh digest.
	seen := map[string]bool{}
	for _, d := range a {
		if seen[string(d)] {
			t.Fatal("one seed produced two identical variants")
		}
		seen[string(d)] = true
	}
}

func TestOracleRejectsTamperedReport(t *testing.T) {
	orc, err := loadOracle(goldenDir, goldenFull)
	if err != nil {
		t.Fatal(err)
	}
	in := newGenerator(1, testCorpus(t, false)).variant(3, modeFull)
	rep, err := firmres.AnalyzeImage(in.data, firmres.WithLint())
	if err != nil {
		t.Fatal(err)
	}
	if err := orc.checkImage(in, firmres.ImageResult{Report: rep}, false); err != nil {
		t.Fatalf("untampered report rejected: %v", err)
	}
	rep.Messages[0].Verdict = "ok-but-tampered"
	if err := orc.checkImage(in, firmres.ImageResult{Report: rep}, false); err == nil {
		t.Fatal("tampered verdict accepted")
	}
	if err := orc.checkImage(in, firmres.ImageResult{Kind: "corrupt-image", Error: "x"}, false); err == nil {
		t.Fatal("unexpected failure accepted")
	}
	noExec := firmres.ImageResult{Kind: outcomeNoExec}
	if err := orc.checkImage(input{dev: 21, mode: modeFull}, noExec, false); err != nil {
		t.Fatalf("device 21 no-device-cloud-executable rejected: %v", err)
	}
	if err := orc.checkImage(input{dev: 20, mode: modeFull}, noExec, false); err == nil {
		t.Fatal("device 20 no-device-cloud-executable accepted")
	}
}

// TestReplayAgreesWithAnalyzeImages requires the layer replay to reproduce
// AnalyzeImages and the golden for symbol-full, stripped and script-only
// images.
func TestReplayAgreesWithAnalyzeImages(t *testing.T) {
	orc, err := loadOracle(goldenDir, goldenFull, goldenStripped)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(2, testCorpus(t, true))
	var ins []input
	for _, dev := range []int{1, 7, 17, 21} {
		ins = append(ins, g.variant(dev, modeFull), g.variant(dev, modeStripped))
	}
	br, err := firmres.AnalyzeImages(context.Background(), datas(ins), firmres.WithLint(), firmres.WithStrippedMode())
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(true, true, 0, false)
	for i, in := range ins {
		rep, _, err := rp.run(context.Background(), nil, nil, in.data)
		res := imageResult(rep, err)
		if err := orc.checkImage(in, res, false); err != nil {
			t.Errorf("replay: %v", err)
		}
		if err := orc.checkImage(in, br.Images[i], false); err != nil {
			t.Errorf("AnalyzeImages: %v", err)
		}
	}
}

// TestLayerSelfTimesCoverReplay requires the layer spans' self times to
// account for at least 90% of the traced replay's wall time, so little work
// hides outside a named layer.
func TestLayerSelfTimesCoverReplay(t *testing.T) {
	g := newGenerator(3, testCorpus(t, true))
	rec := obs.NewRecorder()
	rp := newReplayer(true, true, 0, false)
	for _, in := range g.pass(modeFull, modeStripped) {
		if _, _, err := rp.run(context.Background(), rec, nil, in.data); err != nil && in.dev <= 20 {
			t.Fatal(err)
		}
	}
	if c := coverage(rec.Spans()); c < 0.9 {
		t.Fatalf("layer self times cover %.3f of the replay's wall time, want >= 0.9", c)
	}
	m := metricSet{}
	layerTimes(rec.Spans(), m)
	for _, name := range []string{"image.unpack_us", "strip.recover_us", "pcode.lift_us", "taint.us", "semantics.us", "lint.us"} {
		if m[name].value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].value)
		}
	}
}

// TestServeLatenessFromSchedule stalls the first submission of an open
// loop and requires the submissions queued behind it to be reported late,
// with latency counted from their scheduled send time.
func TestServeLatenessFromSchedule(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK) // every submission is answered as a dedup
		w.Write([]byte(`{"id":"j1","state":"done","deduped":true}`))
	}))
	defer ts.Close()
	st := &serveState{g: newGenerator(4, testCorpus(t, false)), s: &server{base: ts.URL, hc: ts.Client()}}
	r := &run{nproc: 2}
	res, err := st.openLoop(r, nil, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(res.latency) != res.submitted || res.submitted < 100 {
		t.Fatalf("submitted %d, latencies %d, failed %d", res.submitted, len(res.latency), r.failed)
	}
	if late := quantile(res.late, 1); late < ms(stall)/2 {
		t.Fatalf("max lateness %.1fms, want the stall (%v) to delay later sends", late, stall)
	}
	for i := range res.late {
		if res.latency[i] < res.late[i] {
			t.Fatalf("submission %d: latency %.2fms below its lateness %.2fms", i, res.latency[i], res.late[i])
		}
	}
}

func TestCanonicalDropsVolatileKeys(t *testing.T) {
	a, err := canonical([]byte(`{"device":1,"outcome":"report","report":{"A":1,"StageTimings":{"x":5},"Metrics":{"m":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonical([]byte(`{"outcome":"report","report":{"A":1},"device":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
	if _, err := canonical([]byte(`{`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
