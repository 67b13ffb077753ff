package e2nvm

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestDocsCiteCommittedBaselines: every BENCH_*.json the documentation
// quotes numbers from must sit at the repository root and be a report
// written by `go run ./bench -out` — a provenance block plus one entry per
// BENCHMARK.json workload — so a number in the docs can always be traced
// to the run that produced it.
func TestDocsCiteCommittedBaselines(t *testing.T) {
	var manifest struct {
		Workloads []struct{ Name string }
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	cite := regexp.MustCompile(`BENCH_\w+\.json`)
	citedBy := map[string]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range cite.FindAllString(string(text), -1) {
			if citedBy[file] == "" {
				citedBy[file] = doc
			}
		}
	}

	for file, doc := range citedBy {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s cites %s, which is not at the repository root: %v", doc, file, err)
			continue
		}
		var report struct {
			Provenance *struct{ Seed *int64 }
			Workloads  []struct{ Workload string }
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Errorf("%s cites %s, which does not decode as a bench report: %v", doc, file, err)
			continue
		}
		if report.Provenance == nil || report.Provenance.Seed == nil {
			t.Errorf("%s cites %s, which carries no provenance block", doc, file)
		}
		have := map[string]bool{}
		for _, w := range report.Workloads {
			have[w.Workload] = true
		}
		for _, w := range manifest.Workloads {
			if !have[w.Name] {
				t.Errorf("%s cites %s, which has no entry for workload %s", doc, file, w.Name)
			}
		}
	}
}
