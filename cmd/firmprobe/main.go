// Command firmprobe drives the probe-replay stage across the 22-device
// corpus: it generates each device's firmware image, runs the full static
// pipeline plus the probe stage against a simulated flawed cloud, and
// prints a fleet-level exploitability report — the paper's §V loop end to
// end, in one command.
//
// Usage:
//
//	firmprobe [-devices 1-22] [-chaos modes] [-seed n] [-probers n]
//	          [-timeout d] [-j N] [-json]
//
// -chaos injects seeded deterministic faults in front of every simulated
// cloud ("latency", "reset", "drop", "5xx", "slowloris", comma-separated,
// or "all"); -seed pins the fault schedule. Two runs with the same flags
// produce byte-identical output, text or -json: the command reads no
// clock. CI's chaos smoke diffs the -json output.
//
// Exit codes: 0 when every probed message reached a terminal
// classification (granted / denied / invalid / probe-failed with a typed
// error); 1 when any message did not, any device failed unexpectedly, or
// any probe panicked; 2 on usage errors. Script-only corpus devices (no
// device-cloud executable) are reported and tolerated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"firmres"
	"firmres/internal/corpus"
)

const (
	exitOK    = 0
	exitFatal = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// deviceResult is one device's outcome in the fleet report.
type deviceResult struct {
	Device  int                  `json:"device"`
	Name    string               `json:"name,omitempty"`
	Outcome string               `json:"outcome"` // "probed", "no-device-cloud-executable", or "error"
	Error   string               `json:"error,omitempty"`
	Probe   *firmres.ProbeReport `json:"probe,omitempty"`
}

// fleetReport is the deterministic JSON shape of one run.
type fleetReport struct {
	Chaos   string                `json:"chaos,omitempty"`
	Seed    int64                 `json:"seed"`
	Devices []deviceResult        `json:"devices"`
	Summary *firmres.ProbeSummary `json:"summary,omitempty"`
}

func run(w, ew io.Writer, args []string) int {
	fs := flag.NewFlagSet("firmprobe", flag.ContinueOnError)
	fs.SetOutput(ew)
	devices := fs.String("devices", "1-22", "corpus devices to probe: a range (1-22) or comma list (1,3,5)")
	chaosModes := fs.String("chaos", "", "comma-separated chaos fault modes (latency,reset,drop,5xx,slowloris or all)")
	seed := fs.Int64("seed", 0, "seed for the chaos fault schedule")
	probers := fs.Int("probers", 0, "concurrent probers per device (0 = default 8)")
	timeout := fs.Duration("timeout", 0, "per-probe-attempt timeout (0 = default 1s)")
	jobs := fs.Int("j", 0, "analyze up to N devices concurrently (0 = GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "emit the fleet report as JSON")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	ids, err := parseDevices(*devices)
	if err != nil {
		fmt.Fprintf(ew, "firmprobe: %v\n", err)
		return exitUsage
	}

	imgs := make([][]byte, len(ids))
	for i, id := range ids {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			fmt.Fprintf(ew, "firmprobe: build device %d: %v\n", id, err)
			return exitFatal
		}
		imgs[i] = img.Pack()
	}

	opts := []firmres.Option{firmres.WithProbe(), firmres.WithWorkers(*jobs)}
	if *chaosModes != "" {
		var modes []string
		for _, m := range strings.Split(*chaosModes, ",") {
			if m = strings.TrimSpace(m); m != "" {
				modes = append(modes, m)
			}
		}
		opts = append(opts, firmres.WithProbeChaos(modes...))
	}
	if *seed != 0 {
		opts = append(opts, firmres.WithProbeSeed(*seed))
	}
	if *probers > 0 {
		opts = append(opts, firmres.WithProbeProbers(*probers))
	}
	if *timeout > 0 {
		opts = append(opts, firmres.WithProbeTimeout(*timeout))
	}

	br, err := firmres.AnalyzeImages(context.Background(), imgs, opts...)
	if err != nil {
		fmt.Fprintf(ew, "firmprobe: %v\n", err)
		return exitFatal
	}

	fleet := &fleetReport{Chaos: *chaosModes, Seed: *seed}
	exit := exitOK
	for i, res := range br.Images {
		dr := deviceResult{Device: ids[i]}
		switch {
		case errors.Is(res.Err, firmres.ErrNoDeviceCloudExecutable):
			dr.Outcome = "no-device-cloud-executable"
		case res.Err != nil:
			dr.Outcome, dr.Error = "error", res.Error
			exit = exitFatal
		default:
			dr.Name = res.Report.Device + " " + res.Report.Version
			dr.Outcome = "probed"
			dr.Probe = res.Report.Probe
			if dr.Probe == nil {
				// Probe was requested but produced no report: a missing
				// cloud spec degrades with a note; anything else is a bug.
				dr.Outcome = "error"
				dr.Error = "no probe report"
				for _, ae := range res.Report.Errors {
					if ae.Stage == "probe-replay" {
						dr.Error = ae.Detail
					}
				}
				exit = exitFatal
			} else if n := nonTerminal(dr.Probe); n > 0 {
				dr.Outcome = "error"
				dr.Error = fmt.Sprintf("%d message(s) without terminal classification", n)
				exit = exitFatal
			}
		}
		fleet.Devices = append(fleet.Devices, dr)
	}
	fleet.Summary = br.Summary.Probe

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fleet); err != nil {
			fmt.Fprintf(ew, "firmprobe: %v\n", err)
			return exitFatal
		}
		return exit
	}
	render(w, fleet)
	return exit
}

// nonTerminal counts outcomes missing a terminal classification — zero by
// the probe stage's construction; anything else fails the run (CI's chaos
// smoke relies on this).
func nonTerminal(p *firmres.ProbeReport) int {
	n := 0
	for _, o := range p.Outcomes {
		switch o.Classification {
		case firmres.ProbeGranted, firmres.ProbeDenied, firmres.ProbeInvalid:
		case firmres.ProbeFailed:
			if o.ErrorKind == "" {
				n++ // failed without a typed error: not terminal
			}
		default:
			n++
		}
	}
	return n
}

func render(w io.Writer, fleet *fleetReport) {
	if fleet.Chaos != "" {
		fmt.Fprintf(w, "== firmprobe: chaos=%s seed=%d\n", fleet.Chaos, fleet.Seed)
	}
	for _, dr := range fleet.Devices {
		switch dr.Outcome {
		case "no-device-cloud-executable":
			fmt.Fprintf(w, "device %02d: no device-cloud executable (script-based cloud agent)\n", dr.Device)
		case "error":
			fmt.Fprintf(w, "device %02d: ERROR: %s\n", dr.Device, dr.Error)
		default:
			p := dr.Probe
			fmt.Fprintf(w, "device %02d: %-32s %2d probed: %d granted, %d denied, %d invalid, %d failed — %d exploitable\n",
				dr.Device, dr.Name, p.Probed,
				p.Counts[firmres.ProbeGranted], p.Counts[firmres.ProbeDenied],
				p.Counts[firmres.ProbeInvalid], p.Counts[firmres.ProbeFailed], p.Vulnerable)
			for _, o := range p.Outcomes {
				if !o.Vulnerable {
					continue
				}
				fmt.Fprintf(w, "  ! %-24s %-5s %s\n", o.Function, o.Transport, o.Route)
				for _, leak := range o.Leaks {
					fmt.Fprintf(w, "      %s\n", leak)
				}
			}
		}
	}
	if s := fleet.Summary; s != nil {
		fmt.Fprintf(w, "== fleet: %d probed, %d granted, %d denied, %d invalid, %d failed — %d exploitable\n",
			s.Probed, s.Granted, s.Denied, s.Invalid, s.Failed, s.Vulnerable)
	}
}

// parseDevices expands "1-22" / "1,3,5" / "all" into device IDs.
func parseDevices(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		s = "1-22"
	}
	var ids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad device range %q", part)
			}
			for id := a; id <= b; id++ {
				ids = append(ids, id)
			}
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad device id %q", part)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if id < 1 || id > 22 {
			return nil, fmt.Errorf("device %d out of corpus range 1-22", id)
		}
	}
	return ids, nil
}
