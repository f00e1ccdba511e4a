package firmres

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firmres/internal/corpus"
)

func packedDevice(t *testing.T, id int) []byte {
	t.Helper()
	img, err := corpus.BuildImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	return img.Pack()
}

func TestAnalyzeImagePublicAPI(t *testing.T) {
	var col spanCollector
	report, err := AnalyzeImage(packedDevice(t, 17), WithObserver(&col))
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	if report.Executable != "/bin/cloudd" {
		t.Errorf("executable = %q", report.Executable)
	}
	if len(report.Messages) == 0 {
		t.Fatal("no messages reconstructed")
	}
	var flagged int
	for _, m := range report.Messages {
		if m.Flagged {
			flagged++
		}
		if m.Function == "" || m.Deliver == "" {
			t.Errorf("message metadata incomplete: %+v", m)
		}
	}
	if flagged == 0 {
		t.Error("no flagged messages on a vulnerable device")
	}
	if report.ClusterCounts["0.5"] > report.ClusterCounts["0.7"] {
		t.Errorf("cluster counts inverted: %v", report.ClusterCounts)
	}
	// The stage breakdown is one span per stage that ran; the opt-in lint
	// and probe stages open none.
	if n := col.names(); n["pinpoint-executables"] != 1 || n["check-forms"] != 1 || n["lint-passes"]+n["probe-replay"] != 0 {
		t.Errorf("stage spans = %v", n)
	}
}

func TestAnalyzeImageWithLint(t *testing.T) {
	data := packedDevice(t, 11)
	report, err := AnalyzeImage(data, WithLint())
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	got := map[string]bool{}
	for _, d := range report.Diagnostics {
		got[d.Rule+"@"+d.Function] = true
		if d.Executable != "/bin/cloudd" || d.Severity == "" || d.Message == "" {
			t.Errorf("diagnostic incomplete: %+v", d)
		}
	}
	for _, want := range []string{"hardcoded-secret@svc_auth_fallback", "dead-store@svc_stats_tick"} {
		if !got[want] {
			t.Errorf("missing seeded diagnostic %s in %v", want, got)
		}
	}

	// Without WithLint the stage is skipped and the report carries none.
	plain, err := AnalyzeImage(data)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	if len(plain.Diagnostics) != 0 {
		t.Errorf("lint ran without WithLint: %v", plain.Diagnostics)
	}

	// Rule selection narrows the output; unknown rules fail the analysis.
	only, err := AnalyzeImage(data, WithLintRules("dead-store"))
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	for _, d := range only.Diagnostics {
		if d.Rule != "dead-store" {
			t.Errorf("rule filter leaked %s", d.Rule)
		}
	}
	if len(only.Diagnostics) == 0 {
		t.Error("dead-store selection found nothing on device 11")
	}
	if _, err := AnalyzeImage(data, WithLintRules("no-such-rule")); err == nil {
		t.Error("unknown lint rule accepted")
	}
}

func TestDiagnosticsDeterministic(t *testing.T) {
	data := packedDevice(t, 11)
	run := func() []Diagnostic {
		report, err := AnalyzeImage(data, WithLint())
		if err != nil {
			t.Fatalf("AnalyzeImage: %v", err)
		}
		return report.Diagnostics
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no diagnostics on seeded device")
	}
	if len(a) != len(b) {
		t.Fatalf("diagnostic counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Errorf("diagnostic %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestAnalyzeImageRejectsCorrupt(t *testing.T) {
	if _, err := AnalyzeImage([]byte("garbage")); err == nil {
		t.Error("corrupt image accepted")
	}
}

func TestAnalyzeImageScriptOnly(t *testing.T) {
	_, err := AnalyzeImage(packedDevice(t, 22))
	if !errors.Is(err, ErrNoDeviceCloudExecutable) {
		t.Errorf("err = %v, want ErrNoDeviceCloudExecutable", err)
	}
}

func TestAnalyzeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "firmware.bin")
	if err := os.WriteFile(path, packedDevice(t, 5), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeFile(path)
	if err != nil {
		t.Fatalf("AnalyzeFile: %v", err)
	}
	if report.Device == "" {
		t.Error("device metadata missing")
	}
	if _, err := AnalyzeFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMessagesSortedDeterministically(t *testing.T) {
	r1, err := AnalyzeImage(packedDevice(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeImage(packedDevice(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Messages) != len(r2.Messages) {
		t.Fatal("nondeterministic message count")
	}
	for i := range r1.Messages {
		if r1.Messages[i].Function != r2.Messages[i].Function ||
			r1.Messages[i].Body != r2.Messages[i].Body {
			t.Fatalf("nondeterministic order/content at %d", i)
		}
	}
}

func TestLabels(t *testing.T) {
	labels := Labels()
	if len(labels) != 7 || labels[len(labels)-1] != "None" {
		t.Errorf("Labels = %v", labels)
	}
	// Mutating the copy must not affect the canonical list.
	labels[0] = "mutated"
	if Labels()[0] == "mutated" {
		t.Error("Labels leaks internal slice")
	}
}
