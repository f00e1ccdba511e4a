package corpus

import (
	"context"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/facts"
	"firmres/internal/identify"
	"firmres/internal/image"
	"firmres/internal/pcode"
	"firmres/internal/taint"
)

func TestDevicesMatchTableI(t *testing.T) {
	devices := Devices()
	if len(devices) != 22 {
		t.Fatalf("corpus has %d devices, want 22", len(devices))
	}
	for i, d := range devices {
		if d.ID != i+1 {
			t.Errorf("device %d has ID %d", i, d.ID)
		}
	}
	if !devices[20].ScriptOnly || !devices[21].ScriptOnly {
		t.Error("devices 21/22 not script-only")
	}
	if devices[10].Model != "RUT241" || devices[10].Vendor != "Teltonika" {
		t.Errorf("device 11 = %s %s", devices[10].Vendor, devices[10].Model)
	}
}

func TestMessageTargetsRespected(t *testing.T) {
	for _, d := range Devices() {
		if d.ScriptOnly {
			continue
		}
		if got := len(d.Messages); got != d.TargetMessages {
			t.Errorf("device %d: %d messages, want %d", d.ID, got, d.TargetMessages)
		}
		valid := 0
		validLeaves := 0
		for _, m := range d.Messages {
			if m.Valid {
				valid++
				validLeaves += m.LeafCount()
			}
		}
		if valid != d.TargetValid {
			t.Errorf("device %d: %d valid messages, want %d", d.ID, valid, d.TargetValid)
		}
		if validLeaves != d.TargetConfirmed {
			t.Errorf("device %d: %d planted valid leaves, want %d", d.ID, validLeaves, d.TargetConfirmed)
		}
	}
}

func TestVulnerabilitySeeding(t *testing.T) {
	vulnMsgs, endpoints, known := 0, map[string]bool{}, 0
	flagged := 0
	vulnDevices := map[int]bool{}
	for _, d := range Devices() {
		for _, m := range d.Messages {
			if m.Flawed {
				flagged++
			}
			if m.Vuln {
				vulnMsgs++
				endpoints[m.Path] = true
				vulnDevices[d.ID] = true
				if m.Known {
					known++
				}
				if !m.Valid {
					t.Errorf("device %d: vulnerable message %q not valid", d.ID, m.Name)
				}
			}
		}
	}
	if vulnMsgs != 15 {
		t.Errorf("vulnerable messages = %d, want 15 (the confirmed flagged set)", vulnMsgs)
	}
	if len(endpoints) != 14 {
		t.Errorf("distinct vulnerable interfaces = %d, want 14", len(endpoints))
	}
	if known != 1 {
		t.Errorf("known vulnerabilities = %d, want 1", known)
	}
	if len(vulnDevices) != 8 {
		t.Errorf("vulnerable devices = %d, want 8", len(vulnDevices))
	}
	if flagged != 26 {
		t.Errorf("flawed (flagged) messages = %d, want 26", flagged)
	}
}

func TestBuildImageRoundTrip(t *testing.T) {
	d := Device(17)
	img, err := BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	got, err := image.Unpack(img.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(got.Executables()) != 4 { // cloudd + 3 negatives
		t.Errorf("executables = %d, want 4", len(got.Executables()))
	}
	cloudd, ok := got.File("/bin/cloudd")
	if !ok || !cloudd.IsBinary() {
		t.Fatal("cloudd missing or not a binary")
	}
	if _, err := binfmt.Unmarshal(cloudd.Data); err != nil {
		t.Errorf("cloudd does not parse: %v", err)
	}
	if _, ok := got.File("/etc/nvram.defaults"); !ok {
		t.Error("nvram defaults missing")
	}
}

func TestScriptOnlyImage(t *testing.T) {
	img, err := BuildImage(Device(21))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	sh, ok := img.File("/usr/sbin/cloud_agent.sh")
	if !ok || !sh.IsScript() {
		t.Error("script agent missing or misclassified")
	}
	for _, f := range img.Executables() {
		if f.IsBinary() {
			bin, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				t.Fatalf("%s: %v", f.Path, err)
			}
			prog, err := pcode.LiftProgram(bin)
			if err != nil {
				t.Fatalf("%s: lift: %v", f.Path, err)
			}
			if identify.Analyze(prog).IsDeviceCloud {
				t.Errorf("%s identified as device-cloud in a script-only device", f.Path)
			}
		}
	}
}

func TestIdentificationOnGeneratedDevice(t *testing.T) {
	d := Device(5)
	img, err := BuildImage(d)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	var found string
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		bin, err := binfmt.Unmarshal(f.Data)
		if err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("%s: lift: %v", f.Path, err)
		}
		if identify.Analyze(prog).IsDeviceCloud {
			if found != "" {
				t.Errorf("multiple device-cloud executables: %s and %s", found, f.Path)
			}
			found = f.Path
		}
	}
	if found != "/bin/cloudd" {
		t.Errorf("device-cloud executable = %q, want /bin/cloudd", found)
	}
}

func TestTaintRecoversPlantedMessages(t *testing.T) {
	for _, id := range []int{5, 11, 17} {
		d := Device(id)
		bin, err := EmitDeviceCloudBinary(d)
		if err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("device %d: lift: %v", id, err)
		}
		mfts := taint.NewEngineFacts(facts.New(prog), taint.Options{}).AnalyzeContext(context.Background(), 1)
		if got := len(mfts); got != d.TargetMessages {
			t.Errorf("device %d: taint found %d messages, planted %d", id, got, d.TargetMessages)
		}
		// Leaves of valid messages must match the planted confirmed count.
		validLeaves := 0
		byFn := map[string]*taint.MFT{}
		for _, m := range mfts {
			byFn[m.Site.Fn.Name()] = m
		}
		noiseSeen := 0
		for _, spec := range d.Messages {
			m, ok := byFn[fnName(spec)]
			if !ok {
				t.Errorf("device %d: message %q not recovered", id, spec.Name)
				continue
			}
			real, noise := 0, 0
			for _, leaf := range m.Fields() {
				if leaf.Kind == taint.LeafNumeric {
					noise++
				} else {
					real++
				}
			}
			noiseSeen += noise
			if spec.Valid {
				validLeaves += real
				if want := spec.LeafCount(); real != want {
					t.Errorf("device %d %s: %d real leaves, planted %d", id, spec.Name, real, want)
				}
			}
		}
		if validLeaves != d.TargetConfirmed {
			t.Errorf("device %d: %d valid-message leaves, want %d", id, validLeaves, d.TargetConfirmed)
		}
		if noiseSeen != d.NoiseFields {
			t.Errorf("device %d: %d noise leaves, planted %d", id, noiseSeen, d.NoiseFields)
		}
	}
}

func TestCloudSpecCoversValidMessages(t *testing.T) {
	d := Device(20)
	spec := CloudSpec(d)
	valid := 0
	for _, m := range d.Messages {
		if m.Valid {
			valid++
		}
	}
	if got := len(spec.Endpoints) + len(spec.Topics); got != valid {
		t.Errorf("cloud spec hosts %d interfaces, want %d", got, valid)
	}
	if got := len(spec.VulnerableEndpoints()); got != 3 {
		t.Errorf("device 20 vulnerable endpoints = %d, want 3", got)
	}
}
