package cloud

import (
	"strings"
	"testing"

	"firmres/internal/fields"
	"firmres/internal/image"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

func testIdentity() Identity {
	return Identity{
		Model: "C5S", MAC: "AA:BB:CC:00:11:22", Serial: "1102202842",
		UID: "uid-778899", DeviceID: "dev-1", Secret: "per-device-secret",
		BindToken: "bind-token-xyz", Username: "alice", Password: "wonderland",
	}
}

func testSpec() *Spec {
	return &Spec{
		DeviceID: 17,
		Identity: testIdentity(),
		Endpoints: []Endpoint{
			{
				Name: "Checking cloud storage", Path: "?m=cloud&a=queryServices",
				Params: []string{"uid"}, Policy: PolicyIdentifierOnly,
				Response: "services for {uid}", Vulnerable: true,
			},
			{
				Name: "Uploading crash logs", Path: "/api/crash_report",
				Params: []string{"uid", "version"}, Policy: PolicyIdentifierOnly,
				Vulnerable: true,
			},
			{
				Name: "Config sync", Path: "/api/config",
				Params: []string{"deviceId", "token"}, Policy: PolicyBindToken,
			},
			{
				Name: "Signed telemetry", Path: "/api/telemetry",
				Params: []string{"sn", "sign"}, Policy: PolicySignature,
			},
			{
				Name: "Binding", Path: "/api/bind",
				Params: []string{"deviceId", "username", "password", "secret"},
				Policy: PolicyFullCred,
			},
		},
		Topics: []TopicSpec{
			{Name: "Property report", Topic: "/sys/properties/report", Policy: PolicySignature},
		},
	}
}

func startCloud(t *testing.T, spec *Spec) (*Cloud, *Prober) {
	t.Helper()
	c := New(spec)
	if _, _, err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, NewProber(c)
}

func queryMsg(path, body string, flds ...fields.Field) *fields.Message {
	return &fields.Message{
		Format: fields.FormatHTTP, Path: path, Body: body, Fields: flds,
	}
}

func TestIdentifierOnlyEndpointGrantsWithUID(t *testing.T) {
	_, p := startCloud(t, testSpec())
	msg := queryMsg("?m=cloud&a=queryServices", "uid=uid-778899")
	res, err := p.Probe(msg)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted || res.Class != RespOK {
		t.Errorf("result = %+v, want granted OK", res)
	}
	if !strings.Contains(res.Body, "uid-778899") {
		t.Errorf("response did not expand uid: %q", res.Body)
	}
}

func TestUnknownPathNotExists(t *testing.T) {
	_, p := startCloud(t, testSpec())
	res, err := p.Probe(queryMsg("/nope", "a=b"))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Valid || res.Class != RespPathNotExist {
		t.Errorf("result = %+v, want invalid path-not-exists", res)
	}
}

func TestMissingParamsBadRequest(t *testing.T) {
	_, p := startCloud(t, testSpec())
	res, err := p.Probe(queryMsg("/api/crash_report", "uid=uid-778899")) // missing version
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Class != RespBadRequest || res.Valid {
		t.Errorf("result = %+v, want bad request (invalid)", res)
	}
}

func TestAccessDeniedIsStillValid(t *testing.T) {
	_, p := startCloud(t, testSpec())
	// Wrong token: request understood, access denied — counts as a valid
	// reconstructed message per §V-C.
	res, err := p.Probe(queryMsg("/api/config", "deviceId=dev-1&token=wrong"))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Class != RespAccessDenied || !res.Valid || res.Granted {
		t.Errorf("result = %+v, want denied-but-valid", res)
	}
}

func TestBindTokenPolicy(t *testing.T) {
	_, p := startCloud(t, testSpec())
	res, err := p.Probe(queryMsg("/api/config", "deviceId=dev-1&token=bind-token-xyz"))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("correct token denied: %+v", res)
	}
}

func TestSignaturePolicy(t *testing.T) {
	id := testIdentity()
	_, p := startCloud(t, testSpec())
	good := queryMsg("/api/telemetry", "sn="+id.Serial+"&sign="+id.Signature())
	res, err := p.Probe(good)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("valid signature denied: %+v", res)
	}
	bad := queryMsg("/api/telemetry", "sn="+id.Serial+"&sign="+strings.Repeat("a", 64))
	res, err = p.Probe(bad)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Granted {
		t.Error("forged signature accepted")
	}
}

func TestFullCredPolicy(t *testing.T) {
	_, p := startCloud(t, testSpec())
	ok := queryMsg("/api/bind",
		"deviceId=dev-1&username=alice&password=wonderland&secret=per-device-secret")
	res, err := p.Probe(ok)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("full credentials denied: %+v", res)
	}
	attack := queryMsg("/api/bind",
		"deviceId=dev-1&username=eve&password=evil&secret=ATTACKER")
	res, err = p.Probe(attack)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Granted {
		t.Error("attacker credentials accepted by full-cred endpoint")
	}
}

func TestJSONBodyParams(t *testing.T) {
	_, p := startCloud(t, testSpec())
	msg := &fields.Message{
		Format: fields.FormatHTTP, Path: "/api/crash_report",
		Body: `{"uid":"uid-778899","version":"1.0"}`,
	}
	res, err := p.Probe(msg)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("JSON body not parsed: %+v", res)
	}
}

func TestRawBodyWithEmbeddedPath(t *testing.T) {
	_, p := startCloud(t, testSpec())
	msg := &fields.Message{
		Format: fields.FormatQuery,
		Body:   "/api/crash_report?uid=uid-778899&version=2",
	}
	res, err := p.Probe(msg)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("embedded path not routed: %+v", res)
	}
}

func TestMQTTProbeSignedTopic(t *testing.T) {
	id := testIdentity()
	_, p := startCloud(t, testSpec())
	// Legit device: client ID = serial, password = secret.
	legit := &fields.Message{
		Format: fields.FormatMQTT, Topic: "/sys/properties/report",
		Body: `{"temp":20}`,
		Fields: []fields.Field{
			{Semantics: semantics.LabelDevIdentifier, Value: id.Serial},
			{Semantics: semantics.LabelDevSecret, Value: id.Secret},
		},
	}
	res, err := p.Probe(legit)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Errorf("legit device publish denied: %+v", res)
	}
	// Attacker: knows the serial, not the secret → CONNECT refused.
	attack := AttackerMessage(legit, &image.Image{})
	res, err = p.Probe(attack)
	if err != nil {
		t.Fatalf("Probe(attack): %v", err)
	}
	if res.Granted {
		t.Error("attacker MQTT publish accepted on secured broker")
	}
}

func TestAttackerMessageSubstitution(t *testing.T) {
	msg := queryMsg("/api/config", "deviceId=dev-1&token=bind-token-xyz",
		fields.Field{Semantics: semantics.LabelDevIdentifier, Value: "dev-1", Source: taint.LeafNVRAM},
		fields.Field{Semantics: semantics.LabelBindToken, Value: "bind-token-xyz", Source: taint.LeafNVRAM},
	)
	attack := AttackerMessage(msg, &image.Image{})
	if strings.Contains(attack.Body, "bind-token-xyz") {
		t.Errorf("secret token survived attack substitution: %q", attack.Body)
	}
	if !strings.Contains(attack.Body, "dev-1") {
		t.Errorf("identifier removed from attack body: %q", attack.Body)
	}
	// The original message must be untouched.
	if !strings.Contains(msg.Body, "bind-token-xyz") {
		t.Error("original message mutated")
	}
}

// TestAttackerMessageOverlappingSecrets: when one substituted value holds
// another, the longer one is replaced whole, on every call; in map order
// the shorter one was sometimes replaced first, leaving
// "token=ATTACKER-GUESS-SECRET-tok".
func TestAttackerMessageOverlappingSecrets(t *testing.T) {
	msg := queryMsg("/api/bind", "secret=s3cr3t&token=s3cr3t-tok",
		fields.Field{Semantics: semantics.LabelDevSecret, Value: "s3cr3t", Source: taint.LeafNVRAM},
		fields.Field{Semantics: semantics.LabelBindToken, Value: "s3cr3t-tok", Source: taint.LeafNVRAM},
	)
	const want = "secret=ATTACKER-GUESS-SECRET&token=ATTACKER-GUESS-TOKEN"
	for i := 0; i < 200; i++ {
		if got := AttackerMessage(msg, &image.Image{}).Body; got != want {
			t.Fatalf("call %d: attack body %q, want %q", i, got, want)
		}
	}
}

// TestAttackerMessageCopiesOnSubstitution: a message with nothing the
// attacker lacks is its own attack variant; one with a substituted field
// comes back as a copy, and the original keeps its fields.
func TestAttackerMessageCopiesOnSubstitution(t *testing.T) {
	open := queryMsg("/api/crash_report", "uid=uid-778899",
		fields.Field{Semantics: semantics.LabelDevIdentifier, Value: "uid-778899", Source: taint.LeafNVRAM})
	if atk := AttackerMessage(open, &image.Image{}); atk != open {
		t.Errorf("identifier-only message copied: %+v", atk)
	}
	guarded := queryMsg("/api/config", "deviceId=dev-1&token=bind-token-xyz",
		fields.Field{Semantics: semantics.LabelDevIdentifier, Value: "dev-1", Source: taint.LeafNVRAM},
		fields.Field{Semantics: semantics.LabelBindToken, Value: "bind-token-xyz", Source: taint.LeafNVRAM})
	atk := AttackerMessage(guarded, &image.Image{})
	if atk == guarded || atk.Fields[1].Value != "ATTACKER-GUESS-TOKEN" {
		t.Errorf("attack variant %+v does not carry the guessed token", atk)
	}
	if guarded.Fields[1].Value != "bind-token-xyz" {
		t.Errorf("original field mutated to %q", guarded.Fields[1].Value)
	}
}

func TestAttackerKeepsHardcodedSecret(t *testing.T) {
	img := &image.Image{}
	img.AddFile("/etc/ssl/device.pem", 0, []byte("SECRETPEM"))
	msg := queryMsg("/x", "secret=SECRETPEM",
		fields.Field{
			Semantics: semantics.LabelDevSecret, Value: "SECRETPEM",
			Source: taint.LeafFile, SourceKey: "/etc/ssl/device.pem",
		},
	)
	attack := AttackerMessage(msg, img)
	if !strings.Contains(attack.Body, "SECRETPEM") {
		t.Errorf("hard-coded secret replaced: %q", attack.Body)
	}
}

func TestVulnerabilityEndToEnd(t *testing.T) {
	// The Table III scenario: an identifier-only endpoint grants the
	// attacker access; a token endpoint does not.
	img := &image.Image{}
	_, p := startCloud(t, testSpec())

	vulnMsg := queryMsg("?m=cloud&a=queryServices", "uid=uid-778899",
		fields.Field{Semantics: semantics.LabelDevIdentifier, Value: "uid-778899", Source: taint.LeafNVRAM})
	res, err := p.Probe(AttackerMessage(vulnMsg, img))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !res.Granted {
		t.Error("identifier-only endpoint resisted the attacker (should be vulnerable)")
	}

	safeMsg := queryMsg("/api/config", "deviceId=dev-1&token=bind-token-xyz",
		fields.Field{Semantics: semantics.LabelDevIdentifier, Value: "dev-1", Source: taint.LeafNVRAM},
		fields.Field{Semantics: semantics.LabelBindToken, Value: "bind-token-xyz", Source: taint.LeafNVRAM})
	res, err = p.Probe(AttackerMessage(safeMsg, img))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if res.Granted {
		t.Error("token endpoint granted attacker access (should be secure)")
	}
}

func TestDiscoveryOracles(t *testing.T) {
	id := testIdentity()
	reg := NewRegistry(
		ExposedDevice{IP: "203.0.113.5", Model: "C5S", SNMPOpen: true, Identity: id},
		ExposedDevice{IP: "203.0.113.6", Model: "C5S", SNMPOpen: false, Identity: id},
	)
	found := reg.Shodan("C5S")
	if len(found) != 1 || found[0].IP != "203.0.113.5" {
		t.Errorf("Shodan = %+v", found)
	}
	mac, err := reg.SNMPQuery("203.0.113.5", OIDMac)
	if err != nil || mac != id.MAC {
		t.Errorf("SNMPQuery(mac) = %q, %v", mac, err)
	}
	if _, err := reg.SNMPQuery("203.0.113.6", OIDMac); err == nil {
		t.Error("closed SNMP port answered")
	}
	if _, err := reg.SNMPQuery("203.0.113.5", "9.9.9"); err == nil {
		t.Error("unknown OID answered")
	}
	enum := reg.EnumerateMACs("AA:BB:CC")
	if len(enum) != 2 {
		t.Errorf("EnumerateMACs = %d devices", len(enum))
	}
}

func TestPolicyClassification(t *testing.T) {
	broken := []Policy{PolicyOpen, PolicyIdentifierOnly, PolicyFixedToken}
	sound := []Policy{PolicyBindToken, PolicySignature, PolicyFullCred}
	for _, p := range broken {
		if !p.Broken() {
			t.Errorf("%v not classified broken", p)
		}
	}
	for _, p := range sound {
		if p.Broken() {
			t.Errorf("%v classified broken", p)
		}
	}
}

func TestFixedTokenFlow(t *testing.T) {
	// Device 5's flow: registration returns a fixed token usable for log
	// upload (both vulnerable).
	spec := &Spec{
		DeviceID: 5,
		Identity: testIdentity(),
		Endpoints: []Endpoint{
			{
				Name: "Registering device", Path: "/cloud/registrations",
				Params: []string{"serialNumber", "macAddress"},
				Policy: PolicyIdentifierOnly, Response: "deviceToken={fixed_token}",
				Vulnerable: true,
			},
			{
				Name: "Uploading crash logs", Path: "/cloud/upload",
				Params: []string{"serialNo", "deviceToken"},
				Policy: PolicyFixedToken, Vulnerable: true,
			},
		},
	}
	_, p := startCloud(t, spec)
	id := spec.Identity
	reg, err := p.Probe(queryMsg("/cloud/registrations",
		"serialNumber="+id.Serial+"&macAddress="+id.MAC))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !reg.Granted {
		t.Fatalf("registration denied: %+v", reg)
	}
	token := strings.TrimPrefix(reg.Body, "deviceToken=")
	if token != id.FixedToken() {
		t.Fatalf("token = %q", token)
	}
	up, err := p.Probe(queryMsg("/cloud/upload", "serialNo="+id.Serial+"&deviceToken="+token))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !up.Granted {
		t.Errorf("fixed-token upload denied: %+v", up)
	}
}
