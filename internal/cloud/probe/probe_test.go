package probe_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/cloud/chaos"
	"firmres/internal/cloud/probe"
	"firmres/internal/fields"
	"firmres/internal/image"
	"firmres/internal/obs"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

func testSpec() *cloud.Spec {
	return &cloud.Spec{
		DeviceID: 17,
		Identity: cloud.Identity{
			Model: "C5S", MAC: "AA:BB:CC:00:11:22", Serial: "1102202842",
			UID: "uid-778899", DeviceID: "dev-1", Secret: "per-device-secret",
			BindToken: "bind-token-xyz",
		},
		Endpoints: []cloud.Endpoint{
			{
				Name: "Checking cloud storage", Path: "?m=cloud&a=queryServices",
				Params: []string{"uid"}, Policy: cloud.PolicyIdentifierOnly,
				// A flawed cloud that echoes the bind token back to whoever
				// presents a guessable identifier (Table III, audit rows).
				Response: "services for {uid}; token=bind-token-xyz", Vulnerable: true,
			},
			{
				Name: "Config sync", Path: "/api/config",
				Params: []string{"deviceId", "token"}, Policy: cloud.PolicyBindToken,
			},
		},
		Topics: []cloud.TopicSpec{
			{Name: "Property report", Topic: "/sys/properties/report", Policy: cloud.PolicySignature},
		},
	}
}

// testMessages covers every terminal class a healthy cloud can produce:
// an identifier-only HTTP grant (vulnerable), a token-guarded HTTP denial,
// an unroutable path (invalid), a discarded reconstruction, a nil slot,
// and a signed-topic MQTT denial.
func testMessages() []*fields.Message {
	return []*fields.Message{
		{
			Function: "upload_logs", Format: fields.FormatHTTP,
			Path: "?m=cloud&a=queryServices", Body: "uid=uid-778899",
			Fields: []fields.Field{
				{Semantics: semantics.LabelDevIdentifier, Value: "uid-778899", Source: taint.LeafNVRAM},
			},
		},
		{
			Function: "config_sync", Format: fields.FormatHTTP,
			Path: "/api/config", Body: "deviceId=dev-1&token=bind-token-xyz",
			Fields: []fields.Field{
				{Semantics: semantics.LabelDevIdentifier, Value: "dev-1", Source: taint.LeafNVRAM},
				{Semantics: semantics.LabelBindToken, Value: "bind-token-xyz", Source: taint.LeafNVRAM},
			},
		},
		{
			Function: "legacy_ping", Format: fields.FormatHTTP,
			Path: "/nope", Body: "a=b",
		},
		{Function: "lan_discovery", Discarded: true},
		nil,
		{
			Function: "mqtt_report", Format: fields.FormatMQTT,
			Topic: "/sys/properties/report", Body: `{"temp":20}`,
			Fields: []fields.Field{
				{Semantics: semantics.LabelDevIdentifier, Value: "1102202842", Source: taint.LeafNVRAM},
				{Semantics: semantics.LabelDevSecret, Value: "per-device-secret", Source: taint.LeafNVRAM},
			},
		},
	}
}

// fastOptions keeps retries and timeouts tiny so chaos runs finish in
// test time; rates are high enough that every mode fires.
func fastOptions(seed int64) probe.Options {
	return probe.Options{
		Chaos: &chaos.Config{
			Seed:        seed,
			LatencyRate: 0.3, Latency: time.Millisecond,
			ResetRate: 0.2, DropRate: 0.2,
			Err5xxRate: 0.3, Err5xxBurst: 2,
			SlowLorisRate: 0.15, SlowChunkDelay: time.Millisecond,
		},
		AttemptTimeout: 150 * time.Millisecond,
		Retry: cloud.Backoff{
			Attempts: 3, Base: 2 * time.Millisecond,
			Max: 8 * time.Millisecond, Budget: 400 * time.Millisecond, Jitter: 0.5,
		},
		BreakerThreshold: 4, BreakerCooldown: 5 * time.Millisecond,
	}
}

func assertTerminal(t *testing.T, rep *probe.Report, wantProbed int) {
	t.Helper()
	if rep.Probed != wantProbed || len(rep.Outcomes) != wantProbed {
		t.Fatalf("probed %d outcomes %d, want %d", rep.Probed, len(rep.Outcomes), wantProbed)
	}
	total := 0
	for class, n := range rep.Counts {
		switch class {
		case probe.ClassGranted, probe.ClassDenied, probe.ClassInvalid, probe.ClassFailed:
			total += n
		default:
			t.Errorf("non-terminal class %q in counts", class)
		}
	}
	if total != wantProbed {
		t.Errorf("terminal classifications %d, want %d", total, wantProbed)
	}
	for _, o := range rep.Outcomes {
		if o.Classification == probe.ClassFailed && o.ErrorKind == "" {
			t.Errorf("probe-failed outcome %q has no error kind", o.Function)
		}
	}
}

func TestDeviceHealthyCloud(t *testing.T) {
	rep, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, probe.Options{})
	if err != nil {
		t.Fatalf("Device: %v", err)
	}
	assertTerminal(t, rep, 6)
	want := map[string]int{
		probe.ClassGranted: 1, // identifier-only endpoint
		probe.ClassDenied:  2, // bind-token endpoint + signed MQTT topic
		probe.ClassInvalid: 3, // bad path, discarded, nil
	}
	for class, n := range want {
		if rep.Counts[class] != n {
			t.Errorf("counts[%s] = %d, want %d (all: %v)", class, rep.Counts[class], n, rep.Counts)
		}
	}
	if rep.Vulnerable != 1 {
		t.Errorf("vulnerable = %d, want 1", rep.Vulnerable)
	}
	// Outcomes are sorted by (Function, Context).
	for i := 1; i < len(rep.Outcomes); i++ {
		a, b := rep.Outcomes[i-1], rep.Outcomes[i]
		if a.Function > b.Function || (a.Function == b.Function && a.Context > b.Context) {
			t.Errorf("outcomes unsorted at %d: %q then %q", i, a.Function, b.Function)
		}
	}
	for _, o := range rep.Outcomes {
		if o.Function != "upload_logs" {
			continue
		}
		if !o.Vulnerable || o.Classification != probe.ClassGranted {
			t.Fatalf("upload_logs = %+v, want granted+vulnerable", o)
		}
		if len(o.Leaks) == 0 || !strings.Contains(strings.Join(o.Leaks, " "), "Bind-Token") {
			t.Errorf("granted response leaks the bind token; audit found %v", o.Leaks)
		}
		if o.Transport != "http" || o.Route != "?m=cloud&a=queryServices" {
			t.Errorf("route = %s %s", o.Transport, o.Route)
		}
	}
}

// TestDeviceChaosDeterministicAcrossProberCounts is the determinism
// contract end to end: same seed, wildly different concurrency, identical
// report.
func TestDeviceChaosDeterministicAcrossProberCounts(t *testing.T) {
	var reports []*probe.Report
	for _, probers := range []int{1, 4, 32} {
		o := fastOptions(42)
		o.Probers = probers
		rep, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, o)
		if err != nil {
			t.Fatalf("Device(probers=%d): %v", probers, err)
		}
		assertTerminal(t, rep, 6)
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("reports diverge across prober counts:\n%+v\nvs\n%+v", reports[0], reports[i])
		}
	}
}

func TestDeviceChaosSeedChangesSchedule(t *testing.T) {
	// Not every seed pair differs observably, but these two do (pinned);
	// the real assertion is that both remain fully terminal.
	a, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, fastOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, fastOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	assertTerminal(t, a, 6)
	assertTerminal(t, b, 6)
}

func TestDeviceCancelledContextStillTerminal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := probe.Device(ctx, testSpec(), testMessages(), &image.Image{}, probe.Options{})
	if err != nil {
		t.Fatalf("Device: %v", err)
	}
	assertTerminal(t, rep, 6)
	for _, o := range rep.Outcomes {
		if o.Classification == probe.ClassGranted {
			t.Errorf("cancelled run still granted %q", o.Function)
		}
	}
}

// TestDeviceChaosSoak is the in-tree slice of the acceptance soak: ≥100
// concurrent probers, every chaos mode, a few hundred messages, zero
// panics, zero leaked goroutines, 100% terminal classification.
func TestDeviceChaosSoak(t *testing.T) {
	base := testMessages()
	var msgs []*fields.Message
	for i := 0; i < 40; i++ { // 240 messages
		msgs = append(msgs, base...)
	}
	before := runtime.NumGoroutine()
	o := fastOptions(7)
	o.Probers = 128
	rep, err := probe.Device(context.Background(), testSpec(), msgs, &image.Image{}, o)
	if err != nil {
		t.Fatalf("Device: %v", err)
	}
	assertTerminal(t, rep, len(msgs))
	// Let transient prober/broker goroutines drain, then check for leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Errorf("goroutines: %d before, %d after soak — leak", before, after)
	}
}

func TestDeviceMetricsCounters(t *testing.T) {
	met := obs.NewMetrics()
	o := probe.Options{Metrics: met}
	rep, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, o)
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap[obs.Key("probe_attempts_total")] == 0 {
		t.Errorf("probe_attempts_total missing from %v", snap)
	}
	results := int64(0)
	for _, class := range []string{probe.ClassGranted, probe.ClassDenied, probe.ClassInvalid, probe.ClassFailed} {
		results += snap[obs.Key("probe_results_total", "class", class)]
	}
	if results != int64(rep.Probed) {
		t.Errorf("probe_results_total sums to %d, want %d", results, rep.Probed)
	}
}

func TestDeviceNoMessages(t *testing.T) {
	rep, err := probe.Device(context.Background(), testSpec(), nil, &image.Image{}, probe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probed != 0 || len(rep.Outcomes) != 0 {
		t.Fatalf("empty run = %+v", rep)
	}
}

func TestFingerprintInvariants(t *testing.T) {
	a := probe.Options{Probers: 4}
	b := probe.Options{Probers: 99, Metrics: obs.NewMetrics()}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Probers/Metrics must not affect the fingerprint (reports are invariant to them)")
	}
	c := probe.Options{AttemptTimeout: 2 * time.Second}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("AttemptTimeout must affect the fingerprint")
	}
	d := probe.Options{Chaos: &chaos.Config{Seed: 9, ResetRate: 1}}
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("chaos config must affect the fingerprint")
	}
	// A seed with no fault enabled installs no chaos layer, so it cannot
	// change the report.
	if e := (probe.Options{Chaos: &chaos.Config{Seed: 9}}); a.Fingerprint() != e.Fingerprint() {
		t.Error("a chaos config with no fault enabled must fingerprint like no chaos")
	}
}

// TestBreakerOpensStayOutOfMetrics: how often the breaker opens depends on
// how failures interleave across probers, and the metrics snapshot is
// cached with the report, so the count must not appear in it.
func TestBreakerOpensStayOutOfMetrics(t *testing.T) {
	met := obs.NewMetrics()
	o := fastOptions(3)
	o.Chaos = &chaos.Config{Seed: 3, DropRate: 1}
	o.BreakerThreshold = 1
	o.Metrics = met
	rep, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, o)
	if err != nil {
		t.Fatal(err)
	}
	assertTerminal(t, rep, 6)
	if n, ok := met.Snapshot()[obs.Key("probe_breaker_open_total")]; ok {
		t.Errorf("probe_breaker_open_total = %d in the metrics snapshot", n)
	}
}

// TestDeviceLeavesNoGoroutines: once Device returns, nothing of its cloud,
// its broker or its fleet's transport is left running, after a healthy
// run and after a chaos run whose faults sever connections mid-exchange.
// The server side of a closed connection winds down on its own, so the
// check waits a bounded time for the count to settle.
func TestDeviceLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, o := range []probe.Options{{Probers: 4}, fastOptions(5)} {
		rep, err := probe.Device(context.Background(), testSpec(), testMessages(), &image.Image{}, o)
		if err != nil {
			t.Fatalf("Device: %v", err)
		}
		assertTerminal(t, rep, 6)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines running after Device returned, %d before:\n%s",
				runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
