package firmres

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus micro-benchmarks of the pipeline stages. Aggregate
// counts are attached as custom metrics so `go test -bench` output records
// the reproduced table values next to the timings.
//
// See EXPERIMENTS.md for the paper-vs-measured discussion.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/experiments"
	"firmres/internal/facts"
	"firmres/internal/identify"
	"firmres/internal/lint"
	"firmres/internal/mft"
	"firmres/internal/nn"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// sharedRun lazily builds one full corpus analysis reused by the table
// benchmarks (building it inside every iteration would time corpus
// generation, not the experiment).
var (
	runOnce   sync.Once
	sharedRun *experiments.Run
	runErr    error
)

func getSharedRun(b *testing.B) *experiments.Run {
	b.Helper()
	runOnce.Do(func() {
		sharedRun, runErr = experiments.NewRun(experiments.Config{})
	})
	if runErr != nil {
		b.Fatalf("corpus run: %v", runErr)
	}
	return sharedRun
}

// BenchmarkTableI_DeviceCorpus regenerates the Table I device list.
func BenchmarkTableI_DeviceCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI()
		if len(rows) != 22 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	b.ReportMetric(22, "devices")
}

// BenchmarkTableII_ExecutableIdentification measures §V-B: pinpointing the
// device-cloud executable among every binary of one image.
func BenchmarkTableII_ExecutableIdentification(b *testing.B) {
	img, err := corpus.BuildImage(corpus.Device(14)) // largest device
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		found = 0
		for _, f := range img.Executables() {
			if !f.IsBinary() {
				continue
			}
			bin, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := pcode.LiftProgram(bin)
			if err != nil {
				b.Fatal(err)
			}
			if identify.Analyze(prog).IsDeviceCloud {
				found++
			}
		}
	}
	if found != 1 {
		b.Fatalf("identified %d device-cloud executables, want 1", found)
	}
}

// BenchmarkTableII_MessageReconstruction runs the full pipeline over one
// firmware image (Table II columns 1-2).
func BenchmarkTableII_MessageReconstruction(b *testing.B) {
	img, err := corpus.BuildImage(corpus.Device(17))
	if err != nil {
		b.Fatal(err)
	}
	pipeline := core.New(core.Options{})
	b.ResetTimer()
	var msgs int
	for i := 0; i < b.N; i++ {
		res, err := pipeline.AnalyzeImage(img)
		if err != nil {
			b.Fatal(err)
		}
		msgs = len(res.Messages)
	}
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkTableII_FieldIdentification isolates the backward-taint stage
// (Table II columns 3-4; the dominant cost in the paper's breakdown).
func BenchmarkTableII_FieldIdentification(b *testing.B) {
	bin, err := corpus.EmitDeviceCloudBinary(corpus.Device(14))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	fields := 0
	for i := 0; i < b.N; i++ {
		fields = 0
		for _, m := range traceMFTs(prog, taint.Options{}) {
			fields += len(m.Fields())
		}
	}
	b.ReportMetric(float64(fields), "fields")
}

// BenchmarkTableII_SemanticsRecovery isolates slice enrichment plus
// classification (Table II columns 5-8).
func BenchmarkTableII_SemanticsRecovery(b *testing.B) {
	bin, err := corpus.EmitDeviceCloudBinary(corpus.Device(13))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		b.Fatal(err)
	}
	var allSlices []slices.Slice
	for _, m := range traceMFTs(prog, taint.Options{}) {
		allSlices = append(allSlices, slices.Generate(mft.Simplify(m))...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kc := &semantics.KeywordClassifier{}
		for _, s := range allSlices {
			kc.Classify(s)
		}
	}
	b.ReportMetric(float64(len(allSlices)), "slices")
}

// BenchmarkModelTraining trains the TextCNN classifier on a small training
// corpus (§V-C network training; paper: 5 h on an RTX 4090 for 30,941
// slices — here a CPU-sized substitute).
func BenchmarkModelTraining(b *testing.B) {
	examples, err := experiments.TrainingExamples(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := semantics.TrainModel(examples, nn.Config{
			EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 3, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(examples)), "examples")
}

// BenchmarkTableIII_Vulnerabilities scores the flagged messages of the
// analyzed corpus against the attacker-variant replays of the shared run
// (Table III).
func BenchmarkTableIII_Vulnerabilities(b *testing.B) {
	run := getSharedRun(b)
	b.ResetTimer()
	var res *experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableIII(run)
	}
	b.ReportMetric(float64(res.Flagged), "flagged")
	b.ReportMetric(float64(res.Confirmed), "confirmed")
	b.ReportMetric(float64(len(res.Vulns)), "vulns")
}

// BenchmarkTableII_FullCorpus scores the complete Table II over the shared
// corpus analysis.
func BenchmarkTableII_FullCorpus(b *testing.B) {
	run := getSharedRun(b)
	b.ResetTimer()
	var res *experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableII(run)
	}
	b.ReportMetric(float64(res.TotalIdentified), "msgs_identified")
	b.ReportMetric(float64(res.TotalValid), "msgs_valid")
	b.ReportMetric(float64(res.TotalFieldsIdent), "fields_identified")
	b.ReportMetric(float64(res.TotalFieldsConf), "fields_confirmed")
	b.ReportMetric(100*res.FieldAccuracy, "field_acc_pct")
	b.ReportMetric(100*res.SemanticsAccuracy, "sem_acc_pct")
}

// BenchmarkTableIV_Comparison runs the tool-comparison experiment.
func BenchmarkTableIV_Comparison(b *testing.B) {
	run := getSharedRun(b)
	b.ResetTimer()
	var rows []experiments.TableIVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIV(run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Interfaces), "firmres_interfaces")
	b.ReportMetric(float64(rows[1].Interfaces), "leakscope_interfaces")
	b.ReportMetric(float64(rows[2].Interfaces), "apiscanner_interfaces")
	b.ReportMetric(100*rows[0].Accuracy, "firmres_acc_pct")
}

// BenchmarkStageBreakdown reproduces the §V-E per-stage shares as metrics.
func BenchmarkStageBreakdown(b *testing.B) {
	run := getSharedRun(b)
	b.ResetTimer()
	var perf *experiments.PerfResult
	for i := 0; i < b.N; i++ {
		perf = experiments.Perf(run)
	}
	names := []string{"pinpoint_pct", "fields_pct", "semantics_pct", "concat_pct", "formcheck_pct"}
	for i, n := range names {
		b.ReportMetric(100*perf.StageShare[i], n)
	}
}

// BenchmarkEndToEndDevice measures the complete per-firmware wall time
// (paper §V-E: 154 s – 1472 s on real firmware; the synthetic substrate is
// orders of magnitude smaller).
func BenchmarkEndToEndDevice(b *testing.B) {
	for _, id := range []int{5, 14, 17} {
		id := id
		b.Run(corpus.Device(id).Model, func(b *testing.B) {
			spec := corpus.Device(id)
			img, err := corpus.BuildImage(spec)
			if err != nil {
				b.Fatal(err)
			}
			pipeline := core.New(core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.AnalyzeImage(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingByMessages shows the §V-E cost drivers: analysis time
// grows with the number of planted messages and fields ("the time cost
// primarily depends on ... the number of device-cloud messages, and the
// number of message fields"). Training-population devices provide the knob.
func BenchmarkScalingByMessages(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("messages-%d", n), func(b *testing.B) {
			spec := corpus.TrainingDevice(900 + n)
			spec.TargetMessages = n
			spec.TargetValid = n
			spec.TargetConfirmed = n * 8
			spec.NoiseFields = n / 2
			corpus.Resynthesize(spec)
			img, err := corpus.BuildImage(spec)
			if err != nil {
				b.Fatal(err)
			}
			pipeline := core.New(core.Options{})
			b.ResetTimer()
			var fields int
			for i := 0; i < b.N; i++ {
				res, err := pipeline.AnalyzeImage(img)
				if err != nil {
					b.Fatal(err)
				}
				fields = 0
				for j := range res.Messages {
					fields += len(res.Messages[j].Message.Fields)
				}
			}
			b.ReportMetric(float64(n), "messages")
			b.ReportMetric(float64(fields), "fields")
		})
	}
}

// BenchmarkLintPipeline measures the lint pass framework — all registered
// checkers, including the per-function constant-propagation solve — over
// one lifted device-cloud executable.
func BenchmarkLintPipeline(b *testing.B) {
	bin, err := corpus.EmitDeviceCloudBinary(corpus.Device(17))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := lint.NewRunner(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var findings int
	for i := 0; i < b.N; i++ {
		findings = len(runner.RunFacts(context.Background(), facts.New(prog), "/bin/cloudd", 1))
	}
	b.ReportMetric(float64(findings), "findings")
}
