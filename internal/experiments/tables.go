package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/core"
	"firmres/internal/corpus"
)

// TableIRow is one device of Table I.
type TableIRow struct {
	ID       int
	Model    string
	Type     string // Table I's type string
	Category string // one of the paper's seven categories
	Version  string
}

// TableI lists the evaluated devices.
func TableI() []TableIRow {
	var out []TableIRow
	for _, d := range corpus.Devices() {
		out = append(out, TableIRow{
			ID: d.ID, Model: d.Vendor + ": " + d.Model,
			Type: d.Type, Category: deviceCategory(d.Type), Version: d.Version,
		})
	}
	return out
}

// deviceCategory normalizes Table I's type strings to the paper's seven
// categories (§V-A: "industrial routers, home routers, smart cameras, smart
// plugs, wireless access points, smart switches and NAS devices").
func deviceCategory(devType string) string {
	switch devType {
	case "Industrial Router":
		return "Industrial Router"
	case "Wi-Fi Router", "4G Router", "4G-LTE Wi-Fi router", "4GXeLTE Router":
		return "Home Router"
	case "Smart Camera":
		return "Smart Camera"
	case "Smart Plug":
		return "Smart Plug"
	case "Wireless Access Point":
		return "Wireless Access Point"
	case "Smart Switch":
		return "Smart Switch"
	default:
		return "NAS"
	}
}

// TableIIRow reproduces one device row of Table II.
type TableIIRow struct {
	DeviceID        int
	MsgIdentified   int
	MsgValid        int
	FieldsIdent     int             // fields identified over valid messages
	FieldsConfirmed int             // fields matching planted ground truth
	Clusters        map[float64]int // nil when the device never uses sprintf
	SemTotal        int             // value-bearing fields (classified units)
	SemAccurate     int             // value fields with correct semantics

	// Paper values for side-by-side reporting.
	PaperMsgIdentified, PaperMsgValid, PaperFieldsIdent, PaperFieldsConfirmed int
}

// TableIIResult aggregates the message-reconstruction experiment.
type TableIIResult struct {
	Rows    []TableIIRow
	Skipped []int // devices with no device-cloud executable (21, 22)

	TotalIdentified, TotalValid       int
	TotalFieldsIdent, TotalFieldsConf int
	TotalSemFields, TotalSemAccurate  int
	FieldAccuracy, SemanticsAccuracy  float64
	ModelValAcc, ModelTestAcc         float64
}

// paperTableII holds the published Table II counts for comparison columns.
var paperTableII = map[int][4]int{
	1: {21, 17, 82, 69}, 2: {16, 14, 74, 67}, 3: {18, 16, 102, 93},
	4: {17, 14, 97, 86}, 5: {8, 7, 52, 48}, 6: {14, 13, 82, 78},
	7: {18, 16, 98, 81}, 8: {13, 13, 101, 92}, 9: {15, 14, 96, 88},
	10: {7, 6, 62, 57}, 11: {13, 11, 76, 52}, 12: {15, 11, 85, 71},
	13: {17, 17, 162, 147}, 14: {30, 26, 323, 291}, 15: {5, 4, 58, 53},
	16: {7, 5, 71, 64}, 17: {9, 9, 101, 88}, 18: {13, 11, 117, 91},
	19: {13, 12, 93, 87}, 20: {12, 10, 87, 82},
}

// TableII scores message reconstruction, field identification, and
// semantics recovery over an analyzed run.
func TableII(run *Run) *TableIIResult {
	out := &TableIIResult{ModelValAcc: run.ValAcc, ModelTestAcc: run.TestAcc}
	for _, dr := range run.Devices {
		if dr.Result == nil {
			out.Skipped = append(out.Skipped, dr.Spec.ID)
			continue
		}
		row := TableIIRow{DeviceID: dr.Spec.ID, Clusters: dr.Result.ClusterCounts}
		if p, ok := paperTableII[dr.Spec.ID]; ok {
			row.PaperMsgIdentified, row.PaperMsgValid = p[0], p[1]
			row.PaperFieldsIdent, row.PaperFieldsConfirmed = p[2], p[3]
		}
		row.MsgIdentified = len(dr.Result.Messages)
		for i := range dr.Result.Messages {
			mr := &dr.Result.Messages[i]
			if i < len(dr.Valid) && dr.Valid[i] {
				row.MsgValid++
				ident, conf, semTotal, semAcc := scoreFields(dr.Spec, mr)
				row.FieldsIdent += ident
				row.FieldsConfirmed += conf
				row.SemTotal += semTotal
				row.SemAccurate += semAcc
			}
		}
		out.Rows = append(out.Rows, row)
		out.TotalIdentified += row.MsgIdentified
		out.TotalValid += row.MsgValid
		out.TotalFieldsIdent += row.FieldsIdent
		out.TotalFieldsConf += row.FieldsConfirmed
		out.TotalSemFields += row.SemTotal
		out.TotalSemAccurate += row.SemAccurate
	}
	if out.TotalFieldsIdent > 0 {
		out.FieldAccuracy = float64(out.TotalFieldsConf) / float64(out.TotalFieldsIdent)
	}
	if out.TotalSemFields > 0 {
		out.SemanticsAccuracy = float64(out.TotalSemAccurate) / float64(out.TotalSemFields)
	}
	return out
}

// scoreFields counts identified/confirmed fields and semantics hits for one
// message against the generator's ground truth. Semantics is scored over
// value-bearing fields (semTotal/semAcc); structural constants count as
// identified/confirmed fields but are not classified units (§IV-C message
// separation).
func scoreFields(spec *corpus.DeviceSpec, mr *core.MessageResult) (ident, confirmed, semTotal, semAcc int) {
	for _, info := range mr.Infos {
		ident++
		truth, planted, isValue := corpus.TruthLabelDetail(spec, info.Slice)
		if !planted {
			continue // noise store: identified but not a real field
		}
		confirmed++
		if !isValue {
			continue
		}
		semTotal++
		if info.Label == truth {
			semAcc++
		}
	}
	return ident, confirmed, semTotal, semAcc
}

// VulnRow is one confirmed vulnerability (Table III).
type VulnRow struct {
	DeviceID int
	Name     string // functionality
	Path     string
	Params   string
	Note     string // consequence
	Known    bool
}

// TableIIIResult aggregates the vulnerability-discovery experiment.
type TableIIIResult struct {
	Flagged        int       // messages the form check marked (paper: 26)
	Confirmed      int       // flagged messages whose attack probe succeeded (paper: 15)
	FalsePositives int       // flagged but refuted (paper: 11)
	Vulns          []VulnRow // distinct vulnerable interfaces (paper: 14)
	KnownVulns     int       // previously-known among them (paper: 1)
	VulnDevices    int       // devices with at least one vulnerability (paper: 8)
}

// TableIII probes every flagged message with attacker-obtainable values and
// confirms vulnerabilities against the seeded cloud ground truth.
func TableIII(run *Run) (*TableIIIResult, error) {
	out := &TableIIIResult{}
	seen := map[string]VulnRow{}
	devices := map[int]bool{}
	for _, dr := range run.Devices {
		if dr.Result == nil {
			continue
		}
		truthByFn := map[string]corpus.MessageSpec{}
		for _, m := range dr.Spec.Messages {
			truthByFn["msg_"+m.Name] = m
		}
		for i := range dr.Result.Messages {
			mr := &dr.Result.Messages[i]
			if !mr.Flagged() {
				continue
			}
			out.Flagged++
			attack := cloud.AttackerMessage(mr.Message, dr.Image)
			pr, err := dr.Prober.Probe(attack)
			if err != nil {
				return nil, fmt.Errorf("experiments: device %d attack probe: %w", dr.Spec.ID, err)
			}
			truth, ok := truthByFn[mr.Message.Function]
			if pr.Granted && ok && truth.Vuln {
				out.Confirmed++
				devices[dr.Spec.ID] = true
				key := fmt.Sprintf("%d:%s", dr.Spec.ID, truth.Path)
				if _, dup := seen[key]; !dup {
					seen[key] = VulnRow{
						DeviceID: dr.Spec.ID,
						Name:     truth.VulnName,
						Path:     truth.Path,
						Params:   paramList(truth),
						Note:     truth.VulnNote,
						Known:    truth.Known,
					}
				}
			} else {
				out.FalsePositives++
			}
		}
	}
	for _, v := range seen {
		out.Vulns = append(out.Vulns, v)
		if v.Known {
			out.KnownVulns++
		}
	}
	sort.Slice(out.Vulns, func(i, j int) bool {
		if out.Vulns[i].DeviceID != out.Vulns[j].DeviceID {
			return out.Vulns[i].DeviceID < out.Vulns[j].DeviceID
		}
		return out.Vulns[i].Path < out.Vulns[j].Path
	})
	out.VulnDevices = len(devices)
	return out, nil
}

func paramList(m corpus.MessageSpec) string {
	var keys []string
	for _, f := range m.Fields {
		keys = append(keys, f.Key)
	}
	return strings.Join(keys, "/")
}

// PerfResult is the §V-E performance summary.
type PerfResult struct {
	StageShare [5]float64 // fraction of total time per stage
	MinTotal   time.Duration
	MaxTotal   time.Duration
	PerDevice  map[int]time.Duration
}

// Perf aggregates the stage spans of the devices the run analyzed: the
// stage spans are the direct children of each device's "image" span.
func Perf(run *Run) *PerfResult {
	out := &PerfResult{PerDevice: map[int]time.Duration{}}
	ids := map[string]int{} // device name -> corpus ID
	for _, dr := range run.Devices {
		if dr.Result != nil {
			ids[dr.Image.Device] = dr.Spec.ID
		}
	}
	images := map[int64]int{} // image span ID -> corpus ID
	var totals [5]time.Duration
	// Spans come in start order, so an image span precedes its stages.
	for _, sp := range run.Spans.Spans() {
		if id, ok := ids[sp.Attr("device")]; ok && sp.Name == "image" {
			images[sp.ID] = id
		}
		id, ok := images[sp.Parent]
		if !ok {
			continue
		}
		out.PerDevice[id] += sp.Duration()
		for s := range totals {
			if sp.Name == core.Stage(s).String() {
				totals[s] += sp.Duration()
			}
		}
	}
	for _, total := range out.PerDevice {
		if out.MinTotal == 0 || total < out.MinTotal {
			out.MinTotal = total
		}
		if total > out.MaxTotal {
			out.MaxTotal = total
		}
	}
	var grand time.Duration
	for _, d := range totals {
		grand += d
	}
	if grand > 0 {
		for s := range totals {
			out.StageShare[s] = float64(totals[s]) / float64(grand)
		}
	}
	return out
}
