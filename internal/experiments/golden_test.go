package experiments

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// committedOutput is the file `make experiments` regenerates: every
// registered experiment at goldenConfig, as cmd/e2nvm-bench prints it.
const committedOutput = "../../experiments_output.txt"

var goldenConfig = RunConfig{Scale: 0.5, Seed: 42}

// wallClockColumns names, per experiment, the table columns that hold
// wall-clock measurements. They differ from run to run and machine to
// machine, so the golden comparison masks them; every other cell is a
// pure function of the seed.
var wallClockColumns = map[string][]string{
	"abl-search": {"us/write"},
	"fig04":      {"kmeans_ms", "pca+kmeans_ms", "e2nvm_ms"},
	"fig10":      {"pnw_pred_us", "e2nvm_pred_us"},
	"fig18":      {"wall_ms/epoch"},
}

// wallClockNote matches abl-search's note quoting the ratio of its two
// wall-clock cells.
var wallClockNote = regexp.MustCompile(`[0-9.]+x the placement cost`)

// TestExperimentsMatchCommittedOutput reruns every registered experiment
// and compares its printed result with that experiment's block in
// experiments_output.txt, line by line, skipping only the "completed in"
// timing lines and the wall-clock cells. A refactor that must not move a
// simulated number keeps it passing; a change that moves one regenerates
// the file with `make experiments` and says why.
func TestExperimentsMatchCommittedOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("runs every experiment at scale 0.5 (~1 min without the race detector); run make golden")
	}
	raw, err := os.ReadFile(committedOutput)
	if err != nil {
		t.Fatal(err)
	}
	blocks := splitBlocks(string(raw))
	for id := range blocks {
		if _, ok := Get(id); !ok {
			t.Errorf("%s has a block for %q, which is not a registered experiment", committedOutput, id)
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			want, ok := blocks[id]
			if !ok {
				t.Fatalf("%s has no block for %q; run make experiments", committedOutput, id)
			}
			run, _ := Get(id)
			res, err := run(goldenConfig)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Print(&buf)
			got := normalize(id, strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"))
			exp := normalize(id, want)
			for i := 0; i < len(got) || i < len(exp); i++ {
				var g, e string
				if i < len(got) {
					g = got[i]
				}
				if i < len(exp) {
					e = exp[i]
				}
				if g != e {
					t.Errorf("line %d (cells split by |, wall-clock cells *):\n got  %s\n want %s", i+1, g, e)
				}
			}
		})
	}
}

// splitBlocks cuts the committed output into each experiment's printed
// lines: from its "== id: title ==" header up to, not including, its
// "(id completed in …)" line.
func splitBlocks(s string) map[string][]string {
	blocks := map[string][]string{}
	var id string
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			blocks[id] = []string{line}
		case id == "":
		case strings.HasPrefix(line, "("+id+" completed in "):
			id = ""
		default:
			blocks[id] = append(blocks[id], line)
		}
	}
	return blocks
}

// normalize makes a printed result comparable across runs: table lines
// become their trimmed cells joined by " | ", with id's wall-clock columns
// replaced by "*" (column widths follow the cell contents, so the padding
// itself is not compared), the dash rule is dropped, and wall-clock
// figures in notes are masked.
func normalize(id string, lines []string) []string {
	var out []string
	var spans [][2]int // column extents from the dash rule; nil outside the table
	var masked map[int]bool
	for i, line := range lines {
		if spans == nil && i+1 < len(lines) && isRule(lines[i+1]) {
			spans = ruleSpans(lines[i+1])
			masked = map[int]bool{}
			for c, h := range cells(line, spans) {
				for _, w := range wallClockColumns[id] {
					if h == w {
						masked[c] = true
					}
				}
			}
		}
		switch {
		case spans != nil && isRule(line):
			continue
		case spans != nil && (strings.HasPrefix(line, "series ") || strings.HasPrefix(line, "note: ")):
			spans = nil
		}
		if spans != nil {
			cs := cells(line, spans)
			for c := range cs {
				if masked[c] {
					cs[c] = "*"
				}
			}
			out = append(out, strings.Join(cs, " | "))
			continue
		}
		out = append(out, wallClockNote.ReplaceAllString(line, "*x the placement cost"))
	}
	return out
}

func isRule(line string) bool {
	return strings.HasPrefix(line, "-") && strings.Trim(line, "- ") == ""
}

// ruleSpans returns the [start, end) extent of each dash run.
func ruleSpans(rule string) [][2]int {
	var spans [][2]int
	start := -1
	for i := 0; i <= len(rule); i++ {
		dash := i < len(rule) && rule[i] == '-'
		switch {
		case dash && start < 0:
			start = i
		case !dash && start >= 0:
			spans = append(spans, [2]int{start, i})
			start = -1
		}
	}
	return spans
}

// cells cuts a table line at the column starts the rule gives; the last
// column runs to the end of the line.
func cells(line string, spans [][2]int) []string {
	out := make([]string, len(spans))
	for c, sp := range spans {
		lo, hi := sp[0], len(line)
		if c+1 < len(spans) {
			hi = spans[c+1][0]
		}
		if lo > len(line) {
			lo = len(line)
		}
		if hi > len(line) {
			hi = len(line)
		}
		out[c] = strings.TrimSpace(line[lo:hi])
	}
	return out
}
