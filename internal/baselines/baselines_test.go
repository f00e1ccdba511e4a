package baselines

import (
	"strings"
	"testing"

	"firmres/internal/corpus"
)

func TestAppForPlatformDevice(t *testing.T) {
	d := corpus.Device(17) // 17%3 != 0 → platform-backed
	app := AppFor(d)
	if !app.Platform {
		t.Fatal("device 17 app not platform-backed")
	}
	if len(app.Documented) == 0 {
		t.Fatal("platform app documents no calls")
	}
	// Documented calls carry complete concrete parameters.
	for _, call := range app.Documented {
		if call.Path == "" || len(call.Params) == 0 {
			t.Errorf("incomplete documented call: %+v", call)
		}
	}
	if !strings.HasPrefix(app.Package, "com.cubetoou") {
		t.Errorf("package = %q", app.Package)
	}
}

func TestAppForNonPlatformDevice(t *testing.T) {
	d := corpus.Device(3) // 3%3 == 0 → no platform SDK
	app := AppFor(d)
	if app.Platform || len(app.Documented) != 0 {
		t.Errorf("non-platform app documents calls: %+v", app)
	}
}

func TestEmbeddedKeys(t *testing.T) {
	with := AppFor(corpus.Device(5)) // 5%4 == 1 → embedded token
	if len(with.EmbeddedKeys) != 1 || with.EmbeddedKeys[0] != corpus.Device(5).Identity.BindToken {
		t.Errorf("embedded keys = %v", with.EmbeddedKeys)
	}
	without := AppFor(corpus.Device(6))
	if len(without.EmbeddedKeys) != 0 {
		t.Errorf("device 6 app leaks keys: %v", without.EmbeddedKeys)
	}
}

func TestScriptOnlyApp(t *testing.T) {
	app := AppFor(corpus.Device(22))
	if len(app.Documented) != 0 {
		t.Error("script-only device documented calls")
	}
}

func TestRunLeakScope(t *testing.T) {
	specs := map[int]*corpus.DeviceSpec{}
	var apps []*App
	for _, id := range []int{5, 6, 13} { // 5 and 13 leak (id%4==1)
		d := corpus.Device(id)
		specs[id] = d
		apps = append(apps, AppFor(d))
	}
	res := RunLeakScope(apps, specs)
	if res.Interfaces == 0 {
		t.Fatal("LeakScope found no testable interfaces")
	}
	if res.Accuracy != 1.0 {
		t.Errorf("LeakScope accuracy = %v, want 1.0 (keys are exact)", res.Accuracy)
	}
}

func TestRunAPIScannerReplaysAgainstCloud(t *testing.T) {
	d := corpus.Device(17)
	apps := []*App{AppFor(d)}
	res, err := RunAPIScanner(apps, map[int]*corpus.DeviceSpec{17: d})
	if err != nil {
		t.Fatalf("RunAPIScanner: %v", err)
	}
	if res.Interfaces != len(apps[0].Documented) {
		t.Errorf("interfaces = %d, want %d", res.Interfaces, len(apps[0].Documented))
	}
	if res.Accuracy != 1.0 {
		t.Errorf("APIScanner accuracy = %v, want 1.0 (dynamic replay; %d/%d)",
			res.Accuracy, res.Correct, res.Interfaces)
	}
}

func TestTrueValueResolution(t *testing.T) {
	d := corpus.Device(5)
	tests := []struct {
		f    corpus.FieldSpec
		want string
	}{
		{corpus.FieldSpec{Source: corpus.SrcConst, Value: "v1"}, "v1"},
		{corpus.FieldSpec{Source: corpus.SrcNVRAM, SourceKey: "mac"}, d.Identity.MAC},
		{corpus.FieldSpec{Source: corpus.SrcConfig, SourceKey: "bind_token"}, d.Identity.BindToken},
		{corpus.FieldSpec{Source: corpus.SrcTime}, "1700000000"},
		{corpus.FieldSpec{Source: corpus.SrcSignature}, d.Identity.Signature()},
	}
	for _, tt := range tests {
		if got := trueValue(d, tt.f); got != tt.want {
			t.Errorf("trueValue(%+v) = %q, want %q", tt.f, got, tt.want)
		}
	}
}
