// Stripped audit: analyze a symbol-stripped firmware image — no function
// symbols, no import names, no data symbols — and show that the recovery
// pass still reconstructs the device-cloud messages and the access-control
// verdicts, with the recovery report explaining how much was rebuilt and
// how confidently each extern was identified.
//
//	go run ./examples/stripped_audit
package main

import (
	"fmt"
	"log"

	"firmres"
	"firmres/internal/corpus"
)

func main() {
	// Build corpus device 1 twice: once symbol-full, once as the stripped
	// twin a real crawled firmware image would resemble.
	device := corpus.Device(1)
	full, err := corpus.BuildImage(device)
	if err != nil {
		log.Fatalf("generate firmware: %v", err)
	}
	stripped, err := corpus.BuildStrippedImage(device)
	if err != nil {
		log.Fatalf("strip firmware: %v", err)
	}
	fmt.Printf("firmware: %s %s — symbol-full %d bytes, stripped %d bytes\n\n",
		device.Vendor, device.Model, len(full.Pack()), len(stripped.Pack()))

	// Analyze both with the same options: the recovery pass engages by
	// itself on every binary that is missing a symbol layer.
	fullReport, err := firmres.AnalyzeImage(full.Pack())
	if err != nil {
		log.Fatalf("analyze symbol-full: %v", err)
	}
	strippedReport, err := firmres.AnalyzeImage(stripped.Pack())
	if err != nil {
		log.Fatalf("analyze stripped: %v", err)
	}

	// The recovery report says what was rebuilt from the raw bytes.
	rec := strippedReport.Recovery
	fmt.Printf("recovered from %s: %d function boundaries, %d string constants, %d/%d externs bound\n",
		rec.Binary, rec.FuncsRecovered, rec.StringsRecovered, rec.ExternsBound, rec.ExternsTotal)
	for _, b := range rec.Bindings {
		name := b.Name
		if name == "" {
			name = "(unbound)"
		}
		fmt.Printf("  import#%-3d -> %-26s confidence %.2f  (%s)\n",
			b.Import, name, b.Confidence, b.Evidence)
	}
	for _, n := range rec.Notes {
		fmt.Printf("  note: %s\n", n)
	}

	// The verdicts are what matter: the stripped run must flag the same
	// broken device-cloud access control the symbol-full run flags.
	count := func(r *firmres.Report) (flagged int) {
		for _, m := range r.Messages {
			if m.Flagged {
				flagged++
			}
		}
		return
	}
	fmt.Printf("\nsymbol-full: %d messages, %d flagged\n", len(fullReport.Messages), count(fullReport))
	fmt.Printf("stripped:    %d messages, %d flagged\n\n", len(strippedReport.Messages), count(strippedReport))
	for _, m := range strippedReport.Messages {
		if !m.Flagged {
			continue
		}
		route := m.Path
		if m.Topic != "" {
			route = "topic " + m.Topic
		}
		fmt.Printf("!! %-16s %-6s %-40s [%s] %s\n", m.Function, m.Format, route, m.Verdict, m.Detail)
	}
}
