package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/obs"
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
			if v := dr.Outcomes[i].Validity; v != nil && v.Valid {
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
	Confirmed      int       // flagged messages whose attack replay was granted (paper: 15)
	FalsePositives int       // flagged but refuted (paper: 11)
	Vulns          []VulnRow // distinct vulnerable interfaces (paper: 14)
	KnownVulns     int       // previously-known among them (paper: 1)
	VulnDevices    int       // devices with at least one vulnerability (paper: 8)
}

// TableIII scores the flagged messages: one is confirmed when the cloud
// granted its attacker-variant replay and the seeded ground truth marks it
// vulnerable. NewRun ran that replay for every valid message.
func TableIII(run *Run) *TableIIIResult {
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
			truth, ok := truthByFn[mr.Message.Function]
			if dr.Outcomes[i].Vulnerable && ok && truth.Vuln {
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
	return out
}

func paramList(m corpus.MessageSpec) string {
	var keys []string
	for _, f := range m.Fields {
		keys = append(keys, f.Key)
	}
	return strings.Join(keys, "/")
}

// perfPasses is how many timed passes Perf makes over the run's images. A
// pass over the corpus is short, so one slow span can move a stage's share
// by ten points; the median of five passes does not follow it.
const perfPasses = 5

// PerfResult is the §V-E performance summary over perfPasses passes.
type PerfResult struct {
	// StageShare is each stage's median time over the passes, as a fraction
	// of the sum of the stages' medians, so the shares add up to 1.
	StageShare [5]float64
	// StageMin and StageMax are the lowest and highest share of total time
	// a single pass gave each stage.
	StageMin, StageMax [5]float64
	MinTotal           time.Duration // the lowest PerDevice figure
	MaxTotal           time.Duration // the highest
	// PerDevice is each analyzed device's median total stage time.
	PerDevice map[int]time.Duration
}

// Perf times perfPasses sequential passes over the images the run
// analyzed, through the run's pipeline with a fresh span recorder per pass.
// A device's time in a pass is the sum of its stage spans, the direct
// children of its "image" span.
func Perf(run *Run) *PerfResult {
	ids := map[string]int{} // device name -> corpus ID
	var imgs []*image.Image
	for _, dr := range run.Devices {
		if dr.Result != nil {
			ids[dr.Image.Device] = dr.Spec.ID
			imgs = append(imgs, dr.Image)
		}
	}
	out := &PerfResult{PerDevice: map[int]time.Duration{}}
	if len(imgs) == 0 {
		return out
	}
	var stageTimes [5][perfPasses]time.Duration
	deviceTimes := map[int][]time.Duration{}
	for pass := 0; pass < perfPasses; pass++ {
		rec := obs.NewRecorder()
		for _, img := range imgs {
			// Each image analyzed cleanly through this pipeline in NewRun;
			// a pass only times it again, its stages under an image span.
			sp := rec.StartSpan(nil, "image", obs.String("device", img.Device))
			res, _ := run.pipeline.AnalyzeImageContext(obs.ContextWith(context.Background(), sp), img)
			sp.End()
			res.Release()
		}
		images := map[int64]int{} // image span ID -> corpus ID
		totals := map[int]time.Duration{}
		// Spans come in start order, so an image span precedes its stages.
		for _, sp := range rec.Spans() {
			if sp.Name == "image" {
				images[sp.ID] = ids[sp.Attr("device")]
				continue
			}
			id, ok := images[sp.Parent]
			if !ok {
				continue
			}
			totals[id] += sp.Duration()
			for s := range stageTimes {
				if sp.Name == core.Stage(s).String() {
					stageTimes[s][pass] += sp.Duration()
				}
			}
		}
		for id, d := range totals {
			deviceTimes[id] = append(deviceTimes[id], d)
		}
		var all time.Duration
		for s := range stageTimes {
			all += stageTimes[s][pass]
		}
		for s := range stageTimes {
			share := float64(stageTimes[s][pass]) / float64(all)
			if pass == 0 || share < out.StageMin[s] {
				out.StageMin[s] = share
			}
			out.StageMax[s] = max(out.StageMax[s], share)
		}
	}
	var medians [5]time.Duration
	var sum time.Duration
	for s := range stageTimes {
		medians[s] = median(stageTimes[s][:])
		sum += medians[s]
	}
	for s := range medians {
		out.StageShare[s] = float64(medians[s]) / float64(sum)
	}
	for id, ds := range deviceTimes {
		total := median(ds)
		out.PerDevice[id] = total
		if out.MinTotal == 0 || total < out.MinTotal {
			out.MinTotal = total
		}
		out.MaxTotal = max(out.MaxTotal, total)
	}
	return out
}

// median returns the middle of ds, sorting it in place.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
