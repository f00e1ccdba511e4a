// Package corpus generates the synthetic firmware corpus: 22 devices
// mirroring the paper's Table I, each with a device-cloud executable whose
// message-construction code is planted from per-device specs calibrated to
// Table II, noise executables that the identification stage must reject,
// NVRAM/config/certificate files, and — for devices 21 and 22 — script-only
// cloud agents that FIRMRES cannot analyze (§V-B).
//
// Every generated device comes with a ground-truth sidecar (planted
// messages, fields, primitives, noise counts, seeded vulnerabilities) that
// the experiment harness scores the pipeline against, and a cloud.Spec that
// instantiates the matching simulated vendor cloud.
package corpus

import (
	"fmt"

	"firmres/internal/cloud"
)

// Style is the message-construction idiom of one planted message (§IV-C
// observes two families: piece-by-piece library assembly and formatted
// output).
type Style uint8

// Construction styles.
const (
	StyleJSON    Style = iota + 1 // cJSON_CreateObject / AddString / Print
	StyleSprintf                  // sprintf with a key=value format string
	StyleStrcat                   // strcpy/strcat key and value segments
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleJSON:
		return "json"
	case StyleSprintf:
		return "sprintf"
	case StyleStrcat:
		return "strcat"
	default:
		return "style?"
	}
}

// Transport selects the delivery function of a planted message.
type Transport uint8

// Transports.
const (
	TransportSSL  Transport = iota + 1 // SSL_write with an embedded path
	TransportHTTP                      // http_post(conn, path, body)
	TransportMQTT                      // mqtt_publish(conn, topic, payload)
)

// SourceKind says where a planted field's value comes from.
type SourceKind uint8

// Field sources.
const (
	SrcNVRAM     SourceKind = iota + 1 // nvram_get(key)
	SrcConfig                          // config_read(key)
	SrcEnv                             // web_get_param(key) — front-end input
	SrcConst                           // string constant in .rodata
	SrcFile                            // read_file(path) — e.g. a packaged certificate
	SrcTime                            // time(0) — dynamic metadata
	SrcSignature                       // hmac_sha256(secret, serial)
)

// FieldSpec is one planted message field.
type FieldSpec struct {
	Key       string // wire key ("mac", "deviceId", ...)
	Primitive string // ground-truth semantics label
	Source    SourceKind
	SourceKey string // NVRAM/config/env key or file path
	Value     string // constant value for SrcConst
}

// MessageSpec is one planted device-cloud message.
type MessageSpec struct {
	Name      string // base name; the constructor function is "msg_<Name>"
	Style     Style
	Transport Transport
	Path      string // HTTP path or query route; MQTT topic for TransportMQTT
	Fields    []FieldSpec
	Valid     bool // the cloud hosts this endpoint (Table II #Valid)
	Policy    cloud.Policy
	// PureVerbFormat makes sprintf messages use delimiter-free formats
	// ("%s%s"), which contribute no substrings to the §IV-C clustering
	// (device 11's zero-cluster rows).
	PureVerbFormat bool
	Flawed         bool   // ground truth: the form check should flag it
	Vuln           bool   // ground truth: probing confirms a vulnerability
	Known          bool   // previously-known vulnerability (the CVE device)
	VulnName       string // functionality description (Table III)
	VulnNote       string // consequence description (Table III)
}

// LeafCount predicts how many MFT leaves FIRMRES finds for this message
// when the analysis is exact: per value field one source leaf, plus the
// style's structural constants (format strings, key segments), plus the
// path/topic constant.
func (m MessageSpec) LeafCount() int {
	k := len(m.Fields)
	n := k
	for _, f := range m.Fields {
		if f.Source == SrcSignature {
			n++ // HMAC fields contribute both the key and the data source
		}
	}
	switch m.Style {
	case StyleSprintf:
		n += (k + 3) / 4 // one format string per 4-value sprintf chunk
	case StyleStrcat:
		n += k // one key-segment constant per field
	case StyleJSON:
		// keys are carried on the Add nodes, not as leaves
	}
	switch m.Transport {
	case TransportHTTP, TransportMQTT:
		n++ // the path/topic constant is traced as its own argument
	case TransportSSL:
		if m.Style != StyleSprintf {
			n++ // path prefix emitted as a separate constant segment
		}
		// StyleSprintf embeds the path in the format string.
	}
	return n
}

// DeviceSpec describes one corpus device.
type DeviceSpec struct {
	ID      int
	Vendor  string
	Model   string
	Type    string
	Version string
	Seed    int64

	ScriptOnly bool // devices 21-22: cloud agent is a shell/php script

	// Table II calibration targets.
	TargetMessages  int // #Identified
	TargetValid     int // #Valid
	TargetConfirmed int // #Confirmed fields (planted real leaves)
	NoiseFields     int // #Identified - #Confirmed (planted numeric stores)
	UsesSprintf     bool

	Identity cloud.Identity
	Messages []MessageSpec
}

// NumDevices is the number of Table I devices; their IDs run 1 to
// NumDevices.
const NumDevices = len(tableI)

// tableI is the device list of Table I. Redacted models are reproduced with
// the paper's "***" marker replaced by a deterministic pseudonym.
var tableI = [...]struct {
	id      int
	vendor  string
	model   string
	devType string
	version string
}{
	{1, "InRouter", "InRouter302", "Industrial Router", "V1.0.52"},
	{2, "TP-Link", "TL-CAM-R2", "Smart Camera", "1.0.9"},
	{3, "TP-Link", "TL-IR900", "Industrial Router", "1.2.0"},
	{4, "TP-Link", "TL-TR960G", "4G Router", "0.1.0.5_Build_211202_Rel.47739n"},
	{5, "Linksys", "LNK-WRX53", "Wi-Fi Router", "2.0.11"},
	{6, "Netgear", "GC110", "Smart Switch", "V1.0.5.36"},
	{7, "Netgear", "R8500", "Wi-Fi Router", "V1.0.2.160_1.0.107"},
	{8, "Netgear", "WAC720", "Wireless Access Point", "V3.1.1.0"},
	{9, "Araknis", "AN-100FCC", "Wireless Access Point", "V1.3.02"},
	{10, "TENDA", "AC6", "Wi-Fi Router", "V02.03.01.114"},
	{11, "Teltonika", "RUT241", "4G-LTE Wi-Fi router", "RUT2M_R_00.07.01.3"},
	{12, "360", "C5S", "Wi-Fi Router", "V3.1.2.5552"},
	{13, "Tenvis", "319W", "Smart Camera", "V3.7.25"},
	{14, "Western Digital", "My Cloud", "NAS", "V5.25.124"},
	{15, "Mindor", "ZCZ001", "Smart Plug", "V1.0.7"},
	{16, "Mank", "WF-CT-10X", "Smart Plug", "V1.1.2"},
	{17, "Cubetoou", "T9", "Smart Camera", "a01.04.05.0020.5591a.190822"},
	{18, "DF-iCam", "QC061", "Smart Camera", "2.3.04.25.1"},
	{19, "VStarcam", "BMW1", "Smart Camera", "10.194.161.48"},
	{20, "RUISION", "S4D5620PHR", "Smart Camera", "1.4.0-20230705Z1s"},
	{21, "MOFI", "MOFI4500", "4GXeLTE Router", "2_3_5std"},
	{22, "D-LINK", "DAP1160L", "Wireless Access Point", "FW101WWb04"},
}

// tableII carries the per-device calibration targets of Table II.
var tableII = map[int]struct {
	messages, valid, confirmed, noise int
	sprintf                           bool
}{
	1:  {21, 17, 69, 13, false},
	2:  {16, 14, 67, 7, false},
	3:  {18, 16, 93, 9, false},
	4:  {17, 14, 86, 11, false},
	5:  {8, 7, 48, 4, false},
	6:  {14, 13, 78, 4, false},
	7:  {18, 16, 81, 17, false},
	8:  {13, 13, 92, 9, true},
	9:  {15, 14, 88, 8, false},
	10: {7, 6, 57, 5, true},
	11: {13, 11, 52, 24, true},
	12: {15, 11, 71, 14, true},
	13: {17, 17, 147, 15, true},
	14: {30, 26, 291, 32, true},
	15: {5, 4, 53, 5, true},
	16: {7, 5, 64, 7, true},
	17: {9, 9, 88, 13, true},
	18: {13, 11, 91, 26, true},
	19: {13, 12, 87, 6, true},
	20: {12, 10, 82, 5, true},
}

// identityFor derives a deterministic device identity.
func identityFor(id int, model string) cloud.Identity {
	return cloud.Identity{
		Model:     model,
		MAC:       fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", id, id*3%256, id*7%256),
		Serial:    fmt.Sprintf("11%08d", id*1022442),
		UID:       fmt.Sprintf("uid-%06d", id*31337),
		DeviceID:  fmt.Sprintf("dev-%04d", id*17),
		Secret:    fmt.Sprintf("sec-%d-%08x", id, id*0x9e3779b1),
		BindToken: fmt.Sprintf("tok-%d-%08x", id, id*0x85ebca77),
		Username:  fmt.Sprintf("user%d@example.com", id),
		Password:  fmt.Sprintf("pw-%d-%04x", id, id*4099),
	}
}
