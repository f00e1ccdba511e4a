// Command benchtab regenerates the paper's evaluation tables from a fresh
// corpus run and prints them side-by-side with the published values.
//
// Usage:
//
//	benchtab [-table 1|2|3|4] [-perf] [-model] [-all]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"firmres/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "print one table (1-4)")
	perf := flag.Bool("perf", false, "print the §V-E performance breakdown")
	useModel := flag.Bool("model", false, "train and use the TextCNN classifier (slower)")
	all := flag.Bool("all", false, "print every table and the performance breakdown")
	flag.Parse()
	if *table == 0 && !*perf && !*all {
		*all = true
	}
	if err := run(*table, *perf, *all, *useModel); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(table int, perf, all, useModel bool) error {
	if table == 1 && !all && !perf {
		printTableI()
		return nil
	}
	fmt.Println("benchtab: generating corpus and analyzing 22 devices...")
	run, err := experiments.NewRun(experiments.Config{UseModel: useModel})
	if err != nil {
		return err
	}

	if all || table == 1 {
		printTableI()
	}
	if all || table == 2 {
		printTableII(run)
	}
	if all || table == 3 {
		printTableIII(run)
	}
	if all || table == 4 {
		if err := printTableIV(run); err != nil {
			return err
		}
	}
	if all || perf {
		printPerf(run)
	}
	return nil
}

func printTableI() {
	fmt.Println("\nTable I — evaluated devices")
	fmt.Printf("%-3s %-28s %-22s %s\n", "ID", "Model", "Type", "Firmware Version")
	for _, r := range experiments.TableI() {
		fmt.Printf("%-3d %-28s %-22s %s\n", r.ID, r.Model, r.Category, r.Version)
	}
}

func printTableII(run *experiments.Run) {
	res := experiments.TableII(run)
	fmt.Println("\nTable II — message reconstruction (measured / paper)")
	fmt.Printf("%-3s %12s %12s %14s %14s %16s %9s\n",
		"ID", "#Msg", "#Valid", "#FieldsIdent", "#FieldsConf", "clusters .5/.6/.7", "#SemAcc")
	for _, r := range res.Rows {
		clusters := "  -/-/-"
		if r.Clusters != nil {
			clusters = fmt.Sprintf("%3d/%d/%d", r.Clusters[0.5], r.Clusters[0.6], r.Clusters[0.7])
		}
		fmt.Printf("%-3d %6d/%-5d %6d/%-5d %7d/%-6d %7d/%-6d %16s %5d/%d\n",
			r.DeviceID,
			r.MsgIdentified, r.PaperMsgIdentified,
			r.MsgValid, r.PaperMsgValid,
			r.FieldsIdent, r.PaperFieldsIdent,
			r.FieldsConfirmed, r.PaperFieldsConfirmed,
			clusters, r.SemAccurate, r.SemTotal)
	}
	fmt.Printf("totals: %d/281 identified, %d/246 valid, fields %d/2019 identified, %d/1785 confirmed\n",
		res.TotalIdentified, res.TotalValid, res.TotalFieldsIdent, res.TotalFieldsConf)
	fmt.Printf("field accuracy %.2f%% (paper 88.41%%), semantics accuracy %.2f%% (paper 91.93%%)\n",
		100*res.FieldAccuracy, 100*res.SemanticsAccuracy)
	if run.Model != nil {
		fmt.Printf("classifier: TextCNN val %.2f%% / test %.2f%% (paper 92.23%%/91.74%%)\n",
			100*res.ModelValAcc, 100*res.ModelTestAcc)
	}
	fmt.Printf("skipped (script-only, §V-B): %v\n", res.Skipped)
}

func printTableIII(run *experiments.Run) {
	res := experiments.TableIII(run)
	fmt.Println("\nTable III — discovered vulnerabilities")
	fmt.Printf("flagged %d (paper 26), confirmed %d (paper 15), FPs %d (paper 11)\n",
		res.Flagged, res.Confirmed, res.FalsePositives)
	fmt.Printf("%d distinct interfaces in %d devices, %d previously known (paper: 14/8/1)\n",
		len(res.Vulns), res.VulnDevices, res.KnownVulns)
	for _, v := range res.Vulns {
		known := ""
		if v.Known {
			known = " (known)"
		}
		fmt.Printf("  dev %-2d %-52s%s\n         path %s  params %s\n         %s\n",
			v.DeviceID, v.Name, known, v.Path, v.Params, v.Note)
	}
}

func printTableIV(run *experiments.Run) error {
	rows, err := experiments.TableIV(run)
	if err != nil {
		return err
	}
	fmt.Println("\nTable IV — comparison of existing works")
	fmt.Printf("%-28s %-16s %-32s %11s %9s\n", "Tool", "Inputs", "Target clouds", "#Interfaces", "Accuracy")
	for _, r := range rows {
		fmt.Printf("%-28s %-16s %-32s %11d %8.1f%%\n",
			r.Tool, r.Inputs, r.Targets, r.Interfaces, 100*r.Accuracy)
	}
	return nil
}

func printPerf(run *experiments.Run) {
	perf := experiments.Perf(run)
	fmt.Println("\n§V-E — performance breakdown (measured vs paper; median of five passes, range of single passes)")
	names := []string{"pinpoint executables", "identify fields", "recover semantics",
		"concatenate fields", "detect incorrect forms"}
	paper := []float64{37.67, 43.83, 3.71, 9.96, 4.81}
	for i, n := range names {
		fmt.Printf("  %-24s %6.2f%%  (%5.2f–%5.2f%%)   (paper %5.2f%%)\n", n,
			100*perf.StageShare[i], 100*perf.StageMin[i], 100*perf.StageMax[i], paper[i])
	}
	fmt.Printf("  per-firmware median total: min %v, max %v (paper 154 s – 1472 s on real firmware)\n",
		perf.MinTotal, perf.MaxTotal)
	ids := make([]int, 0, len(perf.PerDevice))
	for id := range perf.PerDevice {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("    device %-2d %v\n", id, perf.PerDevice[id])
	}
}
