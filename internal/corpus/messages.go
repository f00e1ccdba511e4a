package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"firmres/internal/cloud"
	"firmres/internal/semantics"
)

// Devices synthesizes the full 22-device corpus.
func Devices() []*DeviceSpec {
	out := make([]*DeviceSpec, 0, len(tableI))
	for _, row := range tableI {
		out = append(out, deviceSpec(row.id))
	}
	return out
}

// Device synthesizes one device by Table I ID (1-22).
func Device(id int) *DeviceSpec { return deviceSpec(id) }

// IDByIdentity returns the ID of the Table I row whose report identity —
// Device "<vendor> <model>" and Version — matches, or 0. It synthesizes
// nothing and allocates nothing.
func IDByIdentity(device, version string) int {
	for _, row := range tableI {
		rest, ok := strings.CutPrefix(device, row.vendor)
		if ok && version == row.version && len(rest) > 0 && rest[0] == ' ' && rest[1:] == row.model {
			return row.id
		}
	}
	return 0
}

func deviceSpec(id int) *DeviceSpec {
	row := tableI[id-1]
	d := &DeviceSpec{
		ID: row.id, Vendor: row.vendor, Model: row.model,
		Type: row.devType, Version: row.version,
		Seed:     int64(id) * 7919,
		Identity: identityFor(row.id, row.model),
	}
	if t, ok := tableII[id]; ok {
		d.TargetMessages = t.messages
		d.TargetValid = t.valid
		d.TargetConfirmed = t.confirmed
		d.NoiseFields = t.noise
		d.UsesSprintf = t.sprintf
	} else {
		d.ScriptOnly = true // devices 21-22
		return d
	}
	synthesizeMessages(d)
	return d
}

// Field-pool helpers. Field keys follow the vocabularies seen in real
// device-cloud traffic; primitives are the ground-truth labels.

func idField(key, nvramKey string) FieldSpec {
	return FieldSpec{Key: key, Primitive: semantics.LabelDevIdentifier, Source: SrcNVRAM, SourceKey: nvramKey}
}

func tokenField() FieldSpec {
	return FieldSpec{Key: "token", Primitive: semantics.LabelBindToken, Source: SrcConfig, SourceKey: "bind_token"}
}

func secretField() FieldSpec {
	return FieldSpec{Key: "secret", Primitive: semantics.LabelDevSecret, Source: SrcConfig, SourceKey: "device_secret"}
}

func credField(key, envKey string) FieldSpec {
	return FieldSpec{Key: key, Primitive: semantics.LabelUserCred, Source: SrcEnv, SourceKey: envKey}
}

func signField() FieldSpec {
	return FieldSpec{Key: "sign", Primitive: semantics.LabelSignature, Source: SrcSignature}
}

func hostField() FieldSpec {
	return FieldSpec{Key: "host", Primitive: semantics.LabelAddress, Source: SrcNVRAM, SourceKey: "cloud_host"}
}

func constField(key, value string) FieldSpec {
	return FieldSpec{Key: key, Primitive: semantics.LabelNone, Source: SrcConst, Value: value}
}

func timeField(key string) FieldSpec {
	return FieldSpec{Key: key, Primitive: semantics.LabelNone, Source: SrcTime}
}

// metaPool is the None-labelled filler vocabulary.
func metaPool(d *DeviceSpec) []FieldSpec {
	return []FieldSpec{
		timeField("ts"),
		constField("fw", d.Version),
		constField("hw", "rev2"),
		constField("lang", "en"),
		constField("status", "online"),
		constField("channel", "0"),
		constField("stream", "main"),
		constField("net", "wifi"),
		constField("proto", "2"),
		constField("enc", "none"),
		timeField("uptime"),
		constField("tz", "UTC+8"),
	}
}

// identifierPool lists identifier fields in rotation order.
func identifierPool() []FieldSpec {
	return []FieldSpec{
		idField("mac", "mac"),
		idField("sn", "serial_number"),
		idField("deviceId", "device_id"),
		idField("uid", "uid"),
	}
}

// synthesizeMessages plants the device's message list: seeded Table III
// vulnerabilities and false-positive bait first, then standard messages
// filled to the Table II targets.
func synthesizeMessages(d *DeviceSpec) {
	rng := rand.New(rand.NewSource(d.Seed))
	msgs := vulnMessages(d)
	msgs = append(msgs, fpMessages(d)...)

	validBudget := d.TargetValid - len(msgs) // all seeded messages are valid
	leafBudget := d.TargetConfirmed
	for _, m := range msgs {
		leafBudget -= m.LeafCount()
	}
	invalidCount := d.TargetMessages - d.TargetValid

	// Device 11's two invalid messages use delimiter-free formats so the
	// §IV-C clustering yields zero clusters (Table II row 11).
	pureVerbInvalid := d.ID == 11

	// Standard valid messages. Leaves are allocated without overshoot so
	// the final JSON message can absorb the exact remainder.
	ids := identifierPool()
	meta := metaPool(d)
	for i := 0; i < validBudget; i++ {
		remainingMsgs := validBudget - i
		target := leafBudget / remainingMsgs
		style, transport := pickStyle(d, rng, i)
		last := i == validBudget-1
		if last || target < minLeaves(style, transport) {
			// JSON has the smallest and densest leaf footprint
			// (leaves = fields + 1) and can hit any remainder >= 3.
			style = StyleJSON
			transport = TransportHTTP
			if d.ID <= 7 || d.ID == 9 {
				transport = TransportMQTT
			}
		}
		m := standardMessage(d, rng, i, style, transport, target, last, leafBudget, ids, meta)
		leafBudget -= m.LeafCount()
		msgs = append(msgs, m)
	}

	// Invalid messages: constructed and sent, but the cloud no longer hosts
	// the endpoint ("Path Not Exists" probes). They carry the full
	// identifier+token form so the form check does not flag them.
	for i := 0; i < invalidCount; i++ {
		m := MessageSpec{
			Name:      fmt.Sprintf("legacy_%d", i),
			Style:     StyleStrcat,
			Transport: TransportSSL,
			Path:      fmt.Sprintf("/v0/legacy/%s_%d", d.Identity.Model, i),
			Fields: []FieldSpec{
				identifierPool()[i%4],
				tokenField(),
				constField("op", fmt.Sprintf("sync%d", i)),
			},
			Valid:  false,
			Policy: cloud.PolicyBindToken,
		}
		if pureVerbInvalid {
			m.Style = StyleSprintf
			m.PureVerbFormat = true
		}
		msgs = append(msgs, m)
	}
	d.Messages = msgs
}

// pickStyle chooses a construction idiom consistent with the device's
// Table II profile: non-sprintf devices (1-7, 9) never emit format strings;
// device 11 reserves sprintf for its delimiter-free invalid messages.
func pickStyle(d *DeviceSpec, rng *rand.Rand, i int) (Style, Transport) {
	transports := []Transport{TransportSSL, TransportHTTP, TransportMQTT}
	transport := transports[i%3]
	if !d.UsesSprintf || d.ID == 11 {
		if rng.Intn(2) == 0 {
			return StyleJSON, transport
		}
		return StyleStrcat, transport
	}
	if i == 0 {
		// Guarantee at least one formatted-output message on sprintf
		// devices so the Table II cluster columns are populated.
		return StyleSprintf, TransportSSL
	}
	switch rng.Intn(3) {
	case 0:
		return StyleJSON, transport
	case 1:
		return StyleStrcat, transport
	default:
		return StyleSprintf, transport
	}
}

// standardMessage builds one well-formed telemetry/business message whose
// LeafCount approximates (or, for the last message, exactly matches) the
// remaining per-message leaf budget.
func standardMessage(d *DeviceSpec, rng *rand.Rand, i int, style Style, transport Transport,
	target int, exact bool, budget int, ids, meta []FieldSpec) MessageSpec {

	m := MessageSpec{
		Name:      fmt.Sprintf("std_%02d", i),
		Style:     style,
		Transport: transport,
		Valid:     true,
		Policy:    cloud.PolicyBindToken,
	}
	switch transport {
	case TransportMQTT:
		m.Path = fmt.Sprintf("/sys/%s/%02d/report", d.Identity.DeviceID, i)
	default:
		m.Path = fmt.Sprintf("/api/v1/%s/op%02d",
			strings.ReplaceAll(d.Vendor, " ", ""), i)
	}

	// Access-control core: an identifier plus either the binding token
	// (business form ①) or, on every seventh message, an HMAC signature
	// derived from the device secret (business form ②) — both correct
	// compositions of §II-B.
	m.Fields = append(m.Fields, ids[i%len(ids)])
	if i%7 == 5 {
		m.Fields = append(m.Fields, signField())
		m.Policy = cloud.PolicySignature
	} else {
		m.Fields = append(m.Fields, tokenField())
	}
	if i%5 == 3 {
		m.Fields = append(m.Fields, hostField())
	}

	// Fill with meta fields up to the leaf target, never overshooting: the
	// surplus rolls into later messages and the final one absorbs it
	// exactly.
	goal := target
	if exact {
		goal = budget
	}
	mi := rng.Intn(len(meta))
	for attempts := 0; m.LeafCount() < goal && attempts < 3*len(meta); attempts++ {
		f := meta[mi%len(meta)]
		mi++
		// Avoid duplicate keys within one message.
		dup := false
		for _, existing := range m.Fields {
			if existing.Key == f.Key {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		m.Fields = append(m.Fields, f)
		if m.LeafCount() > goal {
			m.Fields = m.Fields[:len(m.Fields)-1]
			break
		}
	}
	if exact {
		// JSON leaves = fields + 1: trim or pad constants for an exact hit.
		for m.LeafCount() > goal && len(m.Fields) > 2 {
			m.Fields = m.Fields[:len(m.Fields)-1]
		}
		for pad := 0; m.LeafCount() < goal; pad++ {
			m.Fields = append(m.Fields, constField(fmt.Sprintf("x%d", pad), fmt.Sprintf("v%d", pad)))
		}
	}
	return m
}

// minLeaves is the smallest LeafCount a standard message of the given shape
// can have (two mandatory access-control fields).
func minLeaves(style Style, transport Transport) int {
	m := MessageSpec{Style: style, Transport: transport,
		Fields: []FieldSpec{idField("mac", "mac"), tokenField()}}
	return m.LeafCount()
}
