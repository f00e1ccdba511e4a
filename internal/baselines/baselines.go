// Package baselines implements simplified versions of the two comparison
// tools of paper Table IV:
//
//   - LEAKSCOPE [40] analyzes mobile apps and exposes cloud credentials
//     embedded in them; the testable interfaces are those reachable with
//     the leaked credentials.
//   - IOT-APISCANNER [25] analyzes mobile IoT-platform apps dynamically,
//     "directly inserting complete messages into send functions" — it
//     replays the app's documented API calls verbatim.
//
// Both consume synthetic companion-app artifacts derived from the device
// corpus. Because they operate on app-side ground truth (embedded keys,
// captured complete messages), their recovery accuracy is 100% by
// construction — the contrast the paper draws against FIRMRES's static
// 87.5%.
package baselines

import (
	"fmt"
	"sort"
	"strings"

	"firmres/internal/cloud"
	"firmres/internal/corpus"
	"firmres/internal/fields"
)

// DocumentedCall is one complete API invocation captured from the app.
type DocumentedCall struct {
	Path   string
	Params map[string]string
}

// App is a synthetic companion-app artifact.
type App struct {
	Package      string
	DeviceID     int
	Platform     bool             // backed by an IoT platform with documented APIs
	Documented   []DocumentedCall // APIScANNER's input: complete messages
	EmbeddedKeys []string         // LEAKSCOPE's findings: hardcoded credentials
}

// AppFor derives the companion app of one device. Platform-backed devices
// (those whose vendor outsources to an IoT platform — every third device
// here) document their HTTP APIs in the app; a subset of apps additionally
// embed the binding token, the LEAKSCOPE leak pattern.
func AppFor(d *corpus.DeviceSpec) *App {
	app := &App{
		Package:  fmt.Sprintf("com.%s.%s", strings.ToLower(strings.ReplaceAll(d.Vendor, " ", "")), "app"),
		DeviceID: d.ID,
		Platform: d.ID%3 != 0, // two thirds of vendors use a platform SDK
	}
	if d.ScriptOnly {
		return app
	}
	for _, m := range d.Messages {
		if !m.Valid || m.Transport == corpus.TransportMQTT {
			continue
		}
		if app.Platform {
			params := map[string]string{}
			for _, f := range m.Fields {
				params[f.Key] = trueValue(d, f)
			}
			app.Documented = append(app.Documented, DocumentedCall{Path: m.Path, Params: params})
		}
	}
	if d.ID%4 == 1 {
		app.EmbeddedKeys = append(app.EmbeddedKeys, d.Identity.BindToken)
	}
	return app
}

// trueValue resolves a planted field's concrete value the way dynamic
// app-side capture would (it sees the real traffic).
func trueValue(d *corpus.DeviceSpec, f corpus.FieldSpec) string {
	switch f.Source {
	case corpus.SrcConst:
		return f.Value
	case corpus.SrcNVRAM:
		if v, ok := corpus.NVRAMDefaults(d).Get(f.SourceKey); ok {
			return v
		}
	case corpus.SrcConfig:
		if v, ok := corpus.CloudConfig(d).Get(f.SourceKey); ok {
			return v
		}
	case corpus.SrcEnv:
		return d.Identity.Password // front-end value observed at capture time
	case corpus.SrcTime:
		return "1700000000"
	case corpus.SrcSignature:
		return d.Identity.Signature()
	}
	return ""
}

// Result summarizes one baseline run for Table IV.
type Result struct {
	Interfaces int     // cloud interfaces the tool can test
	Correct    int     // interfaces whose recovered message the cloud understood
	Accuracy   float64 // Correct / Interfaces
}

// RunLeakScope counts the interfaces testable with credentials embedded in
// the apps: every token-guarded endpoint of a device whose app leaks the
// binding token.
func RunLeakScope(apps []*App, devices map[int]*corpus.DeviceSpec) Result {
	var res Result
	for _, app := range apps {
		if len(app.EmbeddedKeys) == 0 {
			continue
		}
		spec := devices[app.DeviceID]
		if spec == nil {
			continue
		}
		for _, m := range spec.Messages {
			if m.Valid && m.Policy == cloud.PolicyBindToken && m.Transport != corpus.TransportMQTT {
				res.Interfaces++
				res.Correct++ // the leaked credential is exact by construction
			}
		}
	}
	if res.Interfaces > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Interfaces)
	}
	return res
}

// RunAPIScanner replays each app's documented complete messages against a
// simulated cloud built from its device's spec, one cloud at a time, and
// counts the interfaces it can test.
func RunAPIScanner(apps []*App, devices map[int]*corpus.DeviceSpec) (Result, error) {
	var res Result
	for _, app := range apps {
		if spec := devices[app.DeviceID]; spec != nil && len(app.Documented) > 0 {
			if err := replayDocumented(app, spec, &res); err != nil {
				return res, err
			}
		}
	}
	if res.Interfaces > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Interfaces)
	}
	return res, nil
}

// replayDocumented starts the cloud of spec and replays app's documented
// calls against it, counting them into res.
func replayDocumented(app *App, spec *corpus.DeviceSpec, res *Result) error {
	c := cloud.New(corpus.CloudSpec(spec))
	if _, _, err := c.Start(); err != nil {
		return fmt.Errorf("baselines: device %d cloud: %w", app.DeviceID, err)
	}
	defer c.Close()
	prober := cloud.NewProber(c)
	for _, call := range app.Documented {
		res.Interfaces++
		pr, err := prober.Probe(callMessage(call))
		if err != nil {
			return fmt.Errorf("baselines: device %d replay %s: %w", app.DeviceID, call.Path, err)
		}
		if pr.Valid {
			res.Correct++
		}
	}
	return nil
}

// callMessage converts a documented call into a probe message.
func callMessage(call DocumentedCall) *fields.Message {
	keys := make([]string, 0, len(call.Params))
	for k := range call.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, k+"="+call.Params[k])
	}
	return &fields.Message{
		Format: fields.FormatHTTP,
		Path:   call.Path,
		Body:   strings.Join(pairs, "&"),
	}
}
