package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"firmres"
)

// Golden kinds, one file family each under testdata/golden.
const (
	goldenFull     = "full"     // device_NN.json: symbol-full analysis with lint
	goldenStripped = "stripped" // stripped_device_NN.json: stripped mode with lint
	goldenProbe    = "probe"    // probe_device_NN.json: probe stage, chaos off
)

// outcomeNoExec is the golden outcome of the script-only devices 21-22. It is
// the expected result for them, so it counts as a success.
const outcomeNoExec = "no-device-cloud-executable"

// volatileKeys are report keys that carry wall-clock or opt-in counters and
// are never golden. They are removed from the JSON rather than from Go
// fields, so the oracle keeps working if the program drops one of them.
var volatileKeys = []string{"StageTimings", "Metrics"}

// oracle holds the canonical golden record of every (kind, device).
type oracle struct {
	want map[string][]byte
}

func goldenFile(kind string, dev int) string {
	switch kind {
	case goldenStripped:
		return fmt.Sprintf("stripped_device_%02d.json", dev)
	case goldenProbe:
		return fmt.Sprintf("probe_device_%02d.json", dev)
	}
	return fmt.Sprintf("device_%02d.json", dev)
}

// loadOracle reads and canonicalizes every golden of the given kinds.
func loadOracle(dir string, kinds ...string) (*oracle, error) {
	o := &oracle{want: map[string][]byte{}}
	for _, kind := range kinds {
		for dev := 1; dev <= numDevices; dev++ {
			raw, err := os.ReadFile(filepath.Join(dir, goldenFile(kind, dev)))
			if err != nil {
				return nil, fmt.Errorf("golden: %w", err)
			}
			c, err := canonical(raw)
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", goldenFile(kind, dev), err)
			}
			o.want[goldenFile(kind, dev)] = c
		}
	}
	return o, nil
}

// canonical re-encodes a golden-shaped record with sorted keys, exact
// numbers and the volatile report keys removed.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		return nil, err
	}
	if rep, ok := rec["report"].(map[string]any); ok {
		for _, k := range volatileKeys {
			delete(rep, k)
		}
	}
	return json.Marshal(rec)
}

// check compares one produced record against its golden.
func (o *oracle) check(kind string, dev int, rec any) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	got, err := canonical(raw)
	if err != nil {
		return err
	}
	want, ok := o.want[goldenFile(kind, dev)]
	if !ok {
		return fmt.Errorf("no %s golden for device %d", kind, dev)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("device %d: %s output differs from %s", dev, kind, goldenFile(kind, dev))
	}
	return nil
}

// reportRecord is the golden projection of one analysis outcome: the report,
// a *firmres.Report or raw report JSON, or with rep nil the
// no-device-cloud-executable verdict of a script-only device.
func reportRecord(dev int, rep any) map[string]any {
	if rep == nil {
		return map[string]any{"device": dev, "outcome": outcomeNoExec}
	}
	return map[string]any{"device": dev, "outcome": "report", "report": rep}
}

// checkImage checks one batch result against the golden of the input's
// mode: symbol-full, stripped, or (with probe set) the probe report.
func (o *oracle) checkImage(in input, res firmres.ImageResult, probe bool) error {
	switch {
	case res.Report == nil && res.Kind != outcomeNoExec:
		return fmt.Errorf("device %d: unexpected failure: %s", in.dev, res.Error)
	case probe && res.Report == nil:
		return o.check(goldenProbe, in.dev, reportRecord(in.dev, nil))
	case probe:
		return o.check(goldenProbe, in.dev, map[string]any{"device": in.dev, "outcome": "probed", "probe": res.Report.Probe})
	}
	kind := goldenFull
	if in.mode == modeStripped {
		kind = goldenStripped
	}
	if res.Report == nil {
		return o.check(kind, in.dev, reportRecord(in.dev, nil))
	}
	return o.check(kind, in.dev, reportRecord(in.dev, res.Report))
}

// checkBatch checks every result of one batch and returns the number of
// mismatches, reporting the first on stderr.
func (o *oracle) checkBatch(ins []input, br *firmres.BatchReport, probe bool) int {
	failed := 0
	for i := range ins {
		if err := o.checkImage(ins[i], br.Images[i], probe); err != nil {
			if failed == 0 {
				fmt.Fprintln(os.Stderr, "firmbench2: check:", err)
			}
			failed++
		}
	}
	return failed
}
