package core

import (
	"errors"
	"testing"
	"time"

	"firmres/internal/corpus"
	"firmres/internal/errdefs"
	"firmres/internal/obs"
	"firmres/internal/semantics"
)

func analyzeDevice(t *testing.T, id int) (*corpus.DeviceSpec, *Result) {
	t.Helper()
	d := corpus.Device(id)
	img, err := corpus.BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	res, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	return d, res
}

func TestPipelineEndToEndDevice17(t *testing.T) {
	d, res := analyzeDevice(t, 17)
	if res.Executable != "/bin/cloudd" {
		t.Errorf("executable = %q", res.Executable)
	}
	if len(res.Messages) != d.TargetMessages {
		t.Errorf("messages = %d, want %d", len(res.Messages), d.TargetMessages)
	}
	// Device 17 is a sprintf device: cluster counts must be present and
	// non-decreasing with threshold.
	if res.ClusterCounts == nil {
		t.Fatal("cluster counts missing for sprintf device")
	}
	if res.ClusterCounts[0.5] > res.ClusterCounts[0.6] ||
		res.ClusterCounts[0.6] > res.ClusterCounts[0.7] {
		t.Errorf("cluster counts not monotone: %v", res.ClusterCounts)
	}
	// The four vulnerable messages (plus the duplicate callsite) must be
	// flagged by the form check.
	flagged := map[string]bool{}
	for _, mr := range res.FlaggedMessages() {
		flagged[mr.Message.Function] = true
	}
	for _, fn := range []string{"msg_query_services", "msg_crash_report",
		"msg_crash_report_boot", "msg_pic_alarm"} {
		if !flagged[fn] {
			t.Errorf("vulnerable message %s not flagged (flagged set: %v)", fn, flagged)
		}
	}
	// Standard messages carry identifier+token: they must NOT be flagged.
	for i := range res.Messages {
		mr := &res.Messages[i]
		if mr.Message.Function == "msg_std_00" && mr.Flagged() {
			t.Errorf("well-formed message flagged: %+v", mr.Finding)
		}
	}
}

func TestPipelineNonSprintfDeviceHasNoClusters(t *testing.T) {
	_, res := analyzeDevice(t, 2)
	if res.ClusterCounts != nil {
		t.Errorf("device 2 reported cluster counts %v, want none (no sprintf)", res.ClusterCounts)
	}
}

func TestPipelineDevice11ZeroClusters(t *testing.T) {
	_, res := analyzeDevice(t, 11)
	if res.ClusterCounts == nil {
		t.Fatal("device 11 must report cluster counts (sprintf present)")
	}
	for thd, n := range res.ClusterCounts {
		if n != 0 {
			t.Errorf("device 11 threshold %v: %d clusters, want 0 (delimiter-free formats)", thd, n)
		}
	}
}

func TestPipelineRejectsScriptOnlyDevice(t *testing.T) {
	d := corpus.Device(21)
	img, err := corpus.BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	_, err = New(Options{}).AnalyzeImage(img)
	if !errors.Is(err, ErrNoDeviceCloudExecutable) {
		t.Errorf("err = %v, want ErrNoDeviceCloudExecutable", err)
	}
}

// TestPipelineTimingPopulated: stage timing lives in the stage spans, one
// child of the image span per stage that ran, nested inside it.
func TestPipelineTimingPopulated(t *testing.T) {
	img, err := corpus.BuildImage(corpus.Device(5))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	rec := obs.NewRecorder()
	if _, err := New(Options{Obs: rec}).AnalyzeImage(img); err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	spans := rec.Spans() // start order: the image span comes first
	image, ran := spans[0], map[string]bool{}
	var sum time.Duration
	for _, sp := range spans {
		if sp.Parent == image.ID {
			ran[sp.Name] = true
			sum += sp.Duration()
		}
	}
	// Lint and probe are opt-in: they open no span on this run.
	if image.Name != "image" || len(ran) != 5 || ran[StageLint.String()] || ran[StageProbe.String()] {
		t.Errorf("image span %q has stage spans %v, want the five default stages", image.Name, ran)
	}
	if sum <= 0 || sum > image.Duration() {
		t.Errorf("stage spans sum to %v, image span %v", sum, image.Duration())
	}
}

func TestPipelineFieldCountsMatchPlanted(t *testing.T) {
	d, res := analyzeDevice(t, 5)
	byFn := map[string]*MessageResult{}
	for i := range res.Messages {
		byFn[res.Messages[i].Message.Function] = &res.Messages[i]
	}
	for _, spec := range d.Messages {
		if !spec.Valid {
			continue
		}
		mr, ok := byFn["msg_"+spec.Name]
		if !ok {
			t.Errorf("planted message %q not reconstructed", spec.Name)
			continue
		}
		real := 0
		for _, f := range mr.Message.Fields {
			if f.Source.String() != "const-numeric" {
				real++
			}
		}
		if real != spec.LeafCount() {
			t.Errorf("%s: %d real fields, planted %d", spec.Name, real, spec.LeafCount())
		}
	}
}

func TestPipelineSemanticsRecoverIdentifiers(t *testing.T) {
	_, res := analyzeDevice(t, 17)
	var sawIdentifier bool
	for i := range res.Messages {
		for _, f := range res.Messages[i].Message.Fields {
			if f.Semantics == semantics.LabelDevIdentifier && f.SourceKey == "uid" {
				sawIdentifier = true
			}
		}
	}
	if !sawIdentifier {
		t.Error("no uid field recovered as Dev-Identifier")
	}
}

func TestResolverFromImage(t *testing.T) {
	d := corpus.Device(5)
	img, err := corpus.BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	r := ResolverFromImage(img)
	if r.NVRAM["mac"] != d.Identity.MAC {
		t.Errorf("NVRAM mac = %q", r.NVRAM["mac"])
	}
	if r.Config["bind_token"] != d.Identity.BindToken {
		t.Errorf("Config bind_token = %q", r.Config["bind_token"])
	}
	if _, ok := r.Files["/etc/hosts"]; !ok {
		t.Error("files map missing /etc/hosts")
	}
}

func TestResolverFromImageNotesCorruptConfig(t *testing.T) {
	d := corpus.Device(5)
	img, err := corpus.BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	// The stock corpus parses cleanly: hosts/certificate files carry no
	// key=value line and are skipped without a note.
	if _, notes := ResolverFromImageNotes(img); len(notes) != 0 {
		t.Fatalf("clean corpus produced notes: %v", notes)
	}
	// A config-shaped file with a malformed entry loses resolver values and
	// must surface as a degradation note.
	img.AddFile("/etc/broken.conf", 0, []byte("cloud_host=example.com\ngarbage line\n"))
	_, notes := ResolverFromImageNotes(img)
	if len(notes) != 1 {
		t.Fatalf("notes = %v, want exactly one", notes)
	}
	n := notes[0]
	if n.Path != "/etc/broken.conf" || n.Stage != StageConcat.String() {
		t.Errorf("note subject = %q stage %q", n.Path, n.Stage)
	}
	if !errors.Is(n.Err, errdefs.ErrConfigSkipped) {
		t.Errorf("note err %v does not wrap ErrConfigSkipped", n.Err)
	}
	if errdefs.Kind(n.Err) != "config-skipped" {
		t.Errorf("kind = %q", errdefs.Kind(n.Err))
	}
	// The skip must not poison the rest of the resolver.
	r, _ := ResolverFromImageNotes(img)
	if r.NVRAM["mac"] != d.Identity.MAC {
		t.Errorf("NVRAM mac = %q after skip", r.NVRAM["mac"])
	}
}
