package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for one metric. worse is how much b's median
// is worse than a's as a share of a's (negative when better); spread is
// the wider of the two runs' inter-quartile ranges, as a share of a's
// median. A spread wider than the bound cannot show the metric unchanged,
// so such a row is unresolved, not ok.
func judge(a, b Summary, better string, bound float64) (worse, spread float64, verdict string) {
	base := math.Abs(a.Value)
	if base == 0 {
		base = 1
	}
	worse = (b.Value - a.Value) / base
	if better == "higher" {
		worse = -worse
	}
	spread = math.Max(a.IQR(), b.IQR()) / base
	switch {
	case spread > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, spread, verdict
}

func readReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both reports and returns errRegressed when any row regressed.
func compareFiles(w io.Writer, pathA, pathB, boundsPath string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	return compareReports(w, a, b, bf)
}

func compareReports(w io.Writer, a, b Report, bf benchmarkFile) error {
	index := func(ms []Metric) map[string]Summary {
		out := make(map[string]Summary, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Summary
		}
		return out
	}
	bByName := make(map[string]WorkloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		bByName[wr.Workload] = wr
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse\tspread\tbound\tverdict")
	regressed := false
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Workload]
		if !ok || wa.Skipped != "" || wb.Skipped != "" {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\t\tskipped\n", wa.Workload)
			continue
		}
		ma, mb := index(wa.EndToEnd), index(wb.EndToEnd)
		for _, d := range bf.EndToEnd {
			sa, okA := ma[d.Name]
			sb, okB := mb[d.Name]
			if !okA || !okB {
				continue
			}
			worse, spread, verdict := judge(sa, sb, d.Better, d.Bound)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wa.Workload, d.Name, d.Unit, sa.Value, sb.Value, 100*worse, 100*spread, 100*d.Bound, verdict)
		}
		// a rising failure share is a regression whatever the bound
		verdict := verdictOK
		if wb.FailFrac > wa.FailFrac {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(tw, "%s\tfail_frac\tratio\t%g\t%g\t\t\t0%%\t%s\n", wa.Workload, wa.FailFrac, wb.FailFrac, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed {
		return errRegressed
	}
	return nil
}
