package lint_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/lint"
	"firmres/internal/pcode"
)

// lintProg runs r sequentially over prog through a private facts store.
func lintProg(r *lint.Runner, prog *pcode.Program, executable string) []lint.Diagnostic {
	return r.RunFacts(context.Background(), facts.New(prog), executable, 1)
}

// specFindings derives the diagnostics the message specs themselves imply:
// a compile-time-constant field whose key classifies as Dev-Secret or
// Dev-Identifier must be reported against its constructor. (Device 5's
// fixed deviceToken is the only such field in the corpus.)
func specFindings(d *corpus.DeviceSpec) map[string]bool {
	out := map[string]bool{}
	for _, m := range d.Messages {
		if m.Style != corpus.StyleJSON {
			continue // strcat/sprintf channels carry no classified const keys
		}
		for _, fs := range m.Fields {
			if fs.Source != corpus.SrcConst {
				continue
			}
			switch lint.KeyClass(fs.Key) {
			case lint.KeySecret:
				out["hardcoded-secret@msg_"+m.Name] = true
			case lint.KeyIdentifier:
				out["const-identifier@msg_"+m.Name] = true
			}
		}
	}
	return out
}

// TestCorpusSeededFindings runs the full lint suite over every binary
// device and asserts the (rule, function) result set is exactly the seeded
// positives plus the spec-derived findings: full recall on the known-bad
// seeds, zero false positives on the real constructors and baits.
func TestCorpusSeededFindings(t *testing.T) {
	r, err := lint.NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	secretDevices := 0
	for _, d := range corpus.Devices() {
		if d.ScriptOnly {
			if seeds := corpus.LintSeeds(d); len(seeds) != 0 {
				t.Errorf("device %d is script-only but has lint seeds %v", d.ID, seeds)
			}
			continue
		}
		bin, err := corpus.EmitDeviceCloudBinary(d)
		if err != nil {
			t.Fatalf("device %d: %v", d.ID, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("device %d: %v", d.ID, err)
		}

		want := specFindings(d)
		for _, s := range corpus.LintSeeds(d) {
			want[s.Rule+"@"+s.Fn] = true
		}
		if len(want) > 0 {
			secretDevices++
		}

		got := map[string]bool{}
		for _, diag := range lintProg(r, prog, "/bin/cloudd") {
			got[diag.Rule+"@"+diag.Function] = true
		}
		for k := range want {
			if !got[k] {
				t.Errorf("device %d: seeded finding %s not reported", d.ID, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("device %d: unexpected diagnostic %s (false positive)", d.ID, k)
			}
		}
	}
	if secretDevices == 0 {
		t.Fatal("no binary device carries lint seeds; the corpus lost its ground truth")
	}
}

// TestCorpusNegativesClean lints the non-device-cloud executables of every
// image (busybox, lighttpd, ipcd): all are clean by construction.
func TestCorpusNegativesClean(t *testing.T) {
	r, err := lint.NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range corpus.Devices() {
		img, err := corpus.BuildImage(d)
		if err != nil {
			t.Fatalf("device %d: %v", d.ID, err)
		}
		for _, f := range img.Executables() {
			if !f.IsBinary() || f.Path == "/bin/cloudd" {
				continue
			}
			bin, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				t.Fatalf("device %d %s: %v", d.ID, f.Path, err)
			}
			prog, err := pcode.LiftProgram(bin)
			if err != nil {
				t.Fatalf("device %d %s: %v", d.ID, f.Path, err)
			}
			if diags := lintProg(r, prog, f.Path); len(diags) != 0 {
				for _, diag := range diags {
					t.Errorf("device %d %s: %s@%s: %s", d.ID, f.Path, diag.Rule, diag.Function, diag.Message)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no negative executables checked")
	}
}

// TestCorpusLintDeterministic asserts the diagnostic list for one device is
// byte-identical across two independent emissions and runs.
func TestCorpusLintDeterministic(t *testing.T) {
	render := func() string {
		d := corpus.Device(11)
		bin, err := corpus.EmitDeviceCloudBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatal(err)
		}
		r, err := lint.NewRunner(nil)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, diag := range lintProg(r, prog, "/bin/cloudd") {
			out += fmt.Sprintf("%s %s %#x %s %v\n", diag.Rule, diag.Function, diag.Addr, diag.Message, diag.Evidence)
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("lint output differs across runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("device 11 reported no diagnostics; expected seeded findings")
	}
	// Seeded expectations for device 11 specifically, in sorted order.
	lines := []string{"dead-store svc_stats_tick", "hardcoded-secret svc_auth_fallback"}
	idx := make([]string, 0, len(lines))
	for _, s := range corpus.LintSeeds(corpus.Device(11)) {
		idx = append(idx, s.Rule+" "+s.Fn)
	}
	sort.Strings(idx)
	if len(idx) != len(lines) || idx[0] != lines[0] || idx[1] != lines[1] {
		t.Errorf("LintSeeds(11) = %v, want %v", idx, lines)
	}
}
