package firmres

// Ablation benchmarks for the design choices DESIGN.md §4 calls out. Each
// toggles one mechanism and reports the quality delta as custom metrics, so
// `go test -bench=Ablation` records the trade-off next to the timing.

import (
	"context"
	"testing"

	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/fields"
	"firmres/internal/mft"
	"firmres/internal/nn"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/taint"
)

// ablationProgram lifts the device-cloud binary of a corpus device.
func ablationProgram(b *testing.B, id int) (*corpus.DeviceSpec, *pcode.Program) {
	b.Helper()
	spec := corpus.Device(id)
	bin, err := corpus.EmitDeviceCloudBinary(spec)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		b.Fatal(err)
	}
	return spec, prog
}

// traceMFTs runs one sequential taint pass over prog through a private
// facts store.
func traceMFTs(prog *pcode.Program, opts taint.Options) []*taint.MFT {
	return taint.NewEngineFacts(facts.New(prog), opts).AnalyzeContext(context.Background(), 1)
}

// BenchmarkAblationOverTaint compares the paper's over-taint strategy
// (raw-STORE channel on) against precise taint. Over-taint keeps recall at
// 100% (no missed fields, §V-C) and pays with the noise false positives;
// precise taint is clean but structurally under-approximates.
func BenchmarkAblationOverTaint(b *testing.B) {
	spec, prog := ablationProgram(b, 11) // device 11: 24 planted noise fields
	for _, mode := range []struct {
		name string
		opts taint.Options
	}{
		{"overtaint", taint.Options{}},
		{"precise", taint.Options{NoStoreChannel: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var real, noise int
			for i := 0; i < b.N; i++ {
				real, noise = 0, 0
				for _, m := range traceMFTs(prog, mode.opts) {
					for _, leaf := range m.Fields() {
						if leaf.Kind == taint.LeafNumeric {
							noise++
						} else {
							real++
						}
					}
				}
			}
			b.ReportMetric(float64(real), "real_fields")
			b.ReportMetric(float64(noise), "noise_fields")
			total := real + noise
			if total > 0 {
				b.ReportMetric(100*float64(real)/float64(total), "precision_pct")
			}
			_ = spec
		})
	}
}

// BenchmarkAblationEnrichment compares classification over fully enriched
// slices (symbols, constants, key hints) against raw opcode token streams.
func BenchmarkAblationEnrichment(b *testing.B) {
	spec, prog := ablationProgram(b, 17)
	var sls []slices.Slice
	for _, m := range traceMFTs(prog, taint.Options{}) {
		sls = append(sls, slices.Generate(mft.Simplify(m))...)
	}
	score := func(tokens func(slices.Slice) []string) float64 {
		correct, total := 0, 0
		for _, s := range sls {
			truth, planted, isValue := corpus.TruthLabelDetail(spec, s)
			if !planted || !isValue {
				continue
			}
			total++
			if got, _ := semantics.ClassifyTokens(tokens(s)); got == truth {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return 100 * float64(correct) / float64(total)
	}

	b.Run("enriched", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc = score(semantics.Tokens)
		}
		b.ReportMetric(acc, "accuracy_pct")
	})
	b.Run("raw", func(b *testing.B) {
		raw := func(s slices.Slice) []string {
			var out []string
			for _, step := range s.Steps {
				out = append(out, nn.Tokenize(step.Fn.Ops[step.OpIdx].Code.String())...)
			}
			return out
		}
		var acc float64
		for i := 0; i < b.N; i++ {
			acc = score(raw)
		}
		b.ReportMetric(acc, "accuracy_pct")
	})
}

// BenchmarkAblationInversion measures field-order recovery with and without
// the MFT inversion of Fig. 5: without it, the backward-built tree renders
// fields in reverse concatenation order and the messages no longer match
// what the firmware sends.
func BenchmarkAblationInversion(b *testing.B) {
	spec, prog := ablationProgram(b, 17)
	resolver := &fields.MapResolver{
		NVRAM:  corpus.NVRAMDefaults(spec).Map(),
		Config: corpus.CloudConfig(spec).Map(),
	}
	build := func(invert bool) (match, total int) {
		for _, m := range traceMFTs(prog, taint.Options{}) {
			tree := mft.Simplify(m)
			if !invert {
				// Claim the tree is already inverted so Build skips the
				// Fig. 5 inversion and renders backward order.
				tree.Inverted = true
			}
			msg := fields.Build(tree, nil, resolver)
			if msg.Discarded {
				continue
			}
			total++
			if wellOrdered(msg) {
				match++
			}
		}
		return match, total
	}
	for _, mode := range []struct {
		name   string
		invert bool
	}{{"inverted", true}, {"backward", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var match, total int
			for i := 0; i < b.N; i++ {
				match, total = build(mode.invert)
			}
			if total > 0 {
				b.ReportMetric(100*float64(match)/float64(total), "ordered_pct")
			}
		})
	}
}

// wellOrdered checks the rendered route/body shape: query messages must
// lead with their route and carry key=value pairs in key-first order.
func wellOrdered(msg *fields.Message) bool {
	body := msg.Body
	if msg.Path != "" {
		body = msg.Path + body
	}
	if len(body) == 0 {
		return false
	}
	switch body[0] {
	case '/', '?', '{':
		return true
	}
	return false
}

// BenchmarkAblationClusterThreshold sweeps the §IV-C similarity threshold
// and reports the delimiter cluster counts (Table II columns 5-7 and
// beyond).
func BenchmarkAblationClusterThreshold(b *testing.B) {
	_, prog := ablationProgram(b, 14)
	subs, _ := slices.FormatSubstrings(traceMFTs(prog, taint.Options{}))
	if len(subs) == 0 {
		b.Fatal("no format substrings")
	}
	for _, thd := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
		thd := thd
		b.Run(formatThd(thd), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = len(slices.Cluster(subs, thd))
			}
			b.ReportMetric(float64(n), "clusters")
			b.ReportMetric(float64(len(subs)), "substrings")
		})
	}
}

func formatThd(thd float64) string {
	return map[float64]string{0.4: "thd0.4", 0.5: "thd0.5", 0.6: "thd0.6",
		0.7: "thd0.7", 0.8: "thd0.8"}[thd]
}

// BenchmarkAblationClassifier compares the keyword dictionary against the
// trained TextCNN on held-out evaluation devices.
func BenchmarkAblationClassifier(b *testing.B) {
	model, _, _, err := trainSmallModel()
	if err != nil {
		b.Fatal(err)
	}
	spec, prog := ablationProgram(b, 19)
	var sls []slices.Slice
	for _, m := range traceMFTs(prog, taint.Options{}) {
		sls = append(sls, slices.Generate(mft.Simplify(m))...)
	}
	evaluate := func(c semantics.Classifier) float64 {
		correct, total := 0, 0
		for _, s := range sls {
			truth, planted, isValue := corpus.TruthLabelDetail(spec, s)
			if !planted || !isValue {
				continue
			}
			total++
			if got, _ := c.Classify(s); got == truth {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return 100 * float64(correct) / float64(total)
	}
	b.Run("keyword", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc = evaluate(&semantics.KeywordClassifier{})
		}
		b.ReportMetric(acc, "accuracy_pct")
	})
	b.Run("textcnn", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc = evaluate(&semantics.ModelClassifier{Model: model})
		}
		b.ReportMetric(acc, "accuracy_pct")
	})
}

// trainSmallModel builds a compact TextCNN for the classifier ablation.
var trainedModel *nn.Model

func trainSmallModel() (*nn.Model, float64, float64, error) {
	if trainedModel != nil {
		return trainedModel, 0, 0, nil
	}
	examples, err := trainingExamples()
	if err != nil {
		return nil, 0, 0, err
	}
	model, val, test, err := semantics.TrainModel(examples, nn.Config{
		EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 5, Seed: 7,
	})
	if err == nil {
		trainedModel = model
	}
	return model, val, test, err
}

func trainingExamples() ([]semantics.Example, error) {
	var out []semantics.Example
	for i := 0; i < 8; i++ {
		spec := corpus.TrainingDevice(140 + i)
		bin, err := corpus.EmitDeviceCloudBinary(spec)
		if err != nil {
			return nil, err
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			return nil, err
		}
		for _, m := range traceMFTs(prog, taint.Options{}) {
			for _, s := range slices.Generate(mft.Simplify(m)) {
				label, planted := corpus.TruthLabel(spec, s)
				if !planted {
					label = semantics.LabelNone
				}
				out = append(out, semantics.Example{Tokens: semantics.Tokens(s), Label: label})
			}
		}
	}
	return out, nil
}

// BenchmarkAblationAttention compares the plain TextCNN against the variant
// with the self-attention context branch (the paper's MHSA component),
// reporting held-out accuracy of both under the same budget.
func BenchmarkAblationAttention(b *testing.B) {
	examples, err := trainingExamples()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cfg  nn.Config
	}{
		{"textcnn", nn.Config{EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 4, Seed: 7}},
		{"textcnn+attention", nn.Config{EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 4, Seed: 7,
			Attention: true, AttnDim: 8}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var val, test float64
			for i := 0; i < b.N; i++ {
				var err error
				_, val, test, err = semantics.TrainModel(examples, mode.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*val, "val_acc_pct")
			b.ReportMetric(100*test, "test_acc_pct")
		})
	}
}
