// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (device corpus), Table II (message
// reconstruction, field identification, semantics recovery), Table III
// (vulnerability discovery), Table IV (tool comparison), and the §V-E
// performance breakdown. Each experiment runs the real pipeline over the
// generated corpus and scores it against the ground-truth sidecars; nothing
// is read back from the calibration targets except for reporting the
// paper's expected values alongside.
package experiments

import (
	"fmt"

	"firmres/internal/cloud"
	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/nn"
	"firmres/internal/obs"
	"firmres/internal/semantics"
	"firmres/internal/slices"
)

// Config sizes an experiment run.
type Config struct {
	// UseModel selects the trained TextCNN classifier; false uses the
	// keyword dictionary (the paper's labelling heuristic).
	UseModel bool
	// TrainingDevices is the number of out-of-corpus devices used to build
	// the training set (default 16).
	TrainingDevices int
	// Model hyper-parameters (zero values pick fast defaults).
	Model nn.Config
	// Devices restricts the run to specific device IDs (default: all 22).
	Devices []int
}

func (c Config) withDefaults() Config {
	if c.TrainingDevices == 0 {
		c.TrainingDevices = 16
	}
	if c.Model.EmbedDim == 0 {
		c.Model = nn.Config{EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 6, Seed: 42}
	}
	if len(c.Devices) == 0 {
		for id := 1; id <= 22; id++ {
			c.Devices = append(c.Devices, id)
		}
	}
	return c
}

// DeviceRun is the per-device analysis state shared by the experiments.
type DeviceRun struct {
	Spec   *corpus.DeviceSpec
	Image  *image.Image
	Result *core.Result // nil when identification failed (script-only)
	Err    error

	Cloud  *cloud.Cloud
	Prober *cloud.Prober
	// Valid marks, per message index in Result.Messages, whether the cloud
	// understood the probe (§V-C validity).
	Valid []bool
}

// Close shuts the device's simulated cloud down.
func (dr *DeviceRun) Close() {
	if dr.Cloud != nil {
		dr.Cloud.Close()
	}
}

// Run holds a full corpus analysis.
type Run struct {
	Cfg     Config
	Devices []*DeviceRun
	Model   *nn.Model
	ValAcc  float64
	TestAcc float64
	// Spans records every device's analysis; Perf reads the §V-E stage
	// breakdown from its stage spans.
	Spans *obs.Recorder
}

// Close releases every device's cloud.
func (r *Run) Close() {
	for _, dr := range r.Devices {
		dr.Close()
	}
}

// NewRun generates the corpus, optionally trains the classifier, analyzes
// every device, and probes each reconstructed message against its
// simulated vendor cloud.
func NewRun(cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	run := &Run{Cfg: cfg, Spans: obs.NewRecorder()}

	opts := core.Options{Obs: run.Spans}
	if cfg.UseModel {
		model, valAcc, testAcc, err := TrainClassifier(cfg)
		if err != nil {
			return nil, err
		}
		run.Model = model
		run.ValAcc = valAcc
		run.TestAcc = testAcc
		opts.Classifier = &semantics.ModelClassifier{Model: model}
	}
	pipeline := core.New(opts)

	for _, id := range cfg.Devices {
		dr, err := analyzeDevice(pipeline, id)
		if err != nil {
			run.Close()
			return nil, err
		}
		run.Devices = append(run.Devices, dr)
	}
	return run, nil
}

func analyzeDevice(pipeline *core.Pipeline, id int) (*DeviceRun, error) {
	spec := corpus.Device(id)
	img, err := corpus.BuildImage(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: device %d: %w", id, err)
	}
	dr := &DeviceRun{Spec: spec, Image: img}
	res, err := pipeline.AnalyzeImage(img)
	if err != nil {
		dr.Err = err
		return dr, nil // identification failure is a result, not a run error
	}
	dr.Result = res

	c := cloud.New(corpus.CloudSpec(spec))
	if _, _, err := c.Start(); err != nil {
		return nil, fmt.Errorf("experiments: device %d cloud: %w", id, err)
	}
	dr.Cloud = c
	dr.Prober = cloud.NewProber(c)
	for i := range res.Messages {
		pr, err := dr.Prober.Probe(res.Messages[i].Message)
		if err != nil {
			dr.Close()
			return nil, fmt.Errorf("experiments: device %d probe: %w", id, err)
		}
		dr.Valid = append(dr.Valid, pr.Valid)
	}
	return dr, nil
}

// TrainClassifier builds the training set from out-of-corpus devices and
// fits the TextCNN, returning validation and test accuracy (§V-C).
func TrainClassifier(cfg Config) (*nn.Model, float64, float64, error) {
	cfg = cfg.withDefaults()
	examples, err := TrainingExamples(cfg.TrainingDevices)
	if err != nil {
		return nil, 0, 0, err
	}
	return semantics.TrainModel(examples, cfg.Model)
}

// TrainingExamples generates labelled slices from n training devices by
// running the field-identification stages and labelling each slice with the
// generator's ground truth (the stand-in for the paper's keyword-labelled,
// manually-corrected 30,941-slice dataset).
func TrainingExamples(n int) ([]semantics.Example, error) {
	var out []semantics.Example
	for i := 0; i < n; i++ {
		spec := corpus.TrainingDevice(100 + i)
		sls, err := DeviceSlices(spec)
		if err != nil {
			return nil, err
		}
		for _, s := range sls {
			label, planted := corpus.TruthLabel(spec, s)
			if !planted {
				label = semantics.LabelNone
			}
			out = append(out, semantics.Example{
				Tokens: semantics.Tokens(s),
				Label:  label,
			})
		}
	}
	return out, nil
}

// DeviceSlices runs the taint and slicing stages over a device's
// device-cloud binary, without the rest of the pipeline.
func DeviceSlices(spec *corpus.DeviceSpec) ([]slices.Slice, error) {
	img, err := corpus.BuildImage(spec)
	if err != nil {
		return nil, err
	}
	res, err := core.New(core.Options{}).AnalyzeImage(img)
	if err != nil {
		return nil, err
	}
	var out []slices.Slice
	for i := range res.Messages {
		out = append(out, res.Messages[i].Slices...)
	}
	return out, nil
}
