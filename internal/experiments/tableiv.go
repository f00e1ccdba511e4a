package experiments

import (
	"firmres/internal/baselines"
	"firmres/internal/corpus"
)

// TableIVRow is one tool row of the comparison table.
type TableIVRow struct {
	Tool       string
	Inputs     string
	Targets    string
	Interfaces int
	Accuracy   float64
}

// TableIV reproduces the tool comparison: FIRMRES's statically
// reconstructed interfaces and accuracy, Table II's valid and identified
// message totals, against the dynamic baselines' perfect-by-construction
// recovery.
func TableIV(run *Run) ([]TableIVRow, error) {
	msgs := TableII(run)
	devices := map[int]*corpus.DeviceSpec{}
	var apps []*baselines.App
	for _, dr := range run.Devices {
		devices[dr.Spec.ID] = dr.Spec
		apps = append(apps, baselines.AppFor(dr.Spec))
	}
	firmres := TableIVRow{
		Tool:       "FirmRES",
		Inputs:     "IoT firmware",
		Targets:    "IoT vendors' clouds",
		Interfaces: msgs.TotalValid,
	}
	if msgs.TotalIdentified > 0 {
		firmres.Accuracy = float64(msgs.TotalValid) / float64(msgs.TotalIdentified)
	}

	leak := baselines.RunLeakScope(apps, devices)
	scanner, err := baselines.RunAPIScanner(apps, devices)
	if err != nil {
		return nil, err
	}
	return []TableIVRow{
		firmres,
		{
			Tool: "LeakScope (simplified)", Inputs: "Mobile App",
			Targets:    "AWS/Azure/Firebase-style clouds",
			Interfaces: leak.Interfaces, Accuracy: leak.Accuracy,
		},
		{
			Tool: "IoT-APIScanner (simplified)", Inputs: "Mobile IoT App",
			Targets:    "IoT platforms",
			Interfaces: scanner.Interfaces, Accuracy: scanner.Accuracy,
		},
	}, nil
}
