package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"e2nvm/internal/index"
	"e2nvm/internal/nvm"
)

// tiny is the scale all experiment tests run at; the nightly bench harness
// runs at full scale.
const tiny = 0.12

func runExp(t *testing.T, id string, scale float64) *Result {
	t.Helper()
	r, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := r(RunConfig{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID %q, want %q", res.ID, id)
	}
	if res.Table == nil || res.Table.NumRows() == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s Print output missing id", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig04", "fig07", "fig08", "fig09", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19",
		"abl-search", "abl-joint", "abl-latent", "abl-diff", "abl-txn",
		"exp-extended", "exp-fault", "exp-hotcold", "exp-shard", "tbl01",
	}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown id succeeded")
	}
}

func TestScaleDefaults(t *testing.T) {
	c := RunConfig{}
	if c.scale() != 1 {
		t.Fatal("zero scale should default to 1")
	}
	if c.scaleInt(100, 10) != 100 {
		t.Fatal("scaleInt at default scale")
	}
	c.Scale = 0.05
	if c.scaleInt(100, 10) != 10 {
		t.Fatal("scaleInt should clamp to lo")
	}
}

func TestFig1ShapeEnergyIncreasesWithDifference(t *testing.T) {
	res := runExp(t, "fig01", tiny)
	s := res.Series[0] // energy vs diff
	if s.Y[0] >= s.Y[len(s.Y)-1] {
		t.Fatalf("energy at 0%% diff (%v) should be below 100%% diff (%v)", s.Y[0], s.Y[len(s.Y)-1])
	}
	// Latency also increases with difference.
	l := res.Series[1]
	if l.Y[0] >= l.Y[len(l.Y)-1] {
		t.Fatalf("latency at 0%% (%v) should be below 100%% (%v)", l.Y[0], l.Y[len(l.Y)-1])
	}
}

func TestFig2ShapePsiOneIsWorst(t *testing.T) {
	res := runExp(t, "fig02", tiny)
	// The first row (ψ=1) must show more flips than the last (ψ=100) for
	// every scheme; spot-check via the table string is brittle, so re-run
	// logic is embedded in the runner. Here we only check row count.
	if res.Table.NumRows() != 7 {
		t.Fatalf("fig02 rows = %d, want 7 ψ values", res.Table.NumRows())
	}
}

func TestFig4Runs(t *testing.T) {
	res := runExp(t, "fig04", tiny)
	if res.Table.NumRows() != 7 {
		t.Fatalf("fig04 rows = %d, want 7 dims", res.Table.NumRows())
	}
}

func TestFig7Runs(t *testing.T) {
	res := runExp(t, "fig07", tiny)
	if res.Table.NumRows() != 5 {
		t.Fatalf("fig07 rows = %d, want 5 pool sizes", res.Table.NumRows())
	}
}

func TestFig8ElbowNearValley(t *testing.T) {
	res := runExp(t, "fig08", 0.3)
	// The note records both; they should be present.
	joined := strings.Join(res.Notes, " ")
	if !strings.Contains(joined, "elbow K") || !strings.Contains(joined, "valley K") {
		t.Fatalf("fig08 notes missing elbow/valley: %v", res.Notes)
	}
}

func TestFig9LossesDecrease(t *testing.T) {
	res := runExp(t, "fig09", 0.3)
	for _, s := range res.Series {
		if !strings.HasSuffix(s.Name, "/train") {
			continue
		}
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Fatalf("series %s did not decrease: %v -> %v", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestFig10Runs(t *testing.T) {
	res := runExp(t, "fig10", tiny)
	if res.Table.NumRows() != 6*5 {
		t.Fatalf("fig10 rows = %d, want 30 (6 datasets × 5 k)", res.Table.NumRows())
	}
}

func TestFig11Runs(t *testing.T) {
	res := runExp(t, "fig11", tiny)
	if res.Table.NumRows() != 3*2*6 {
		t.Fatalf("fig11 rows = %d, want 36", res.Table.NumRows())
	}
}

func TestFig12EveryStoreImproves(t *testing.T) {
	res := runExp(t, "fig12", 0.3)
	out := res.Table.String()
	for _, store := range []string{"B+-Tree", "WiscKey", "Path Hashing", "FP-Tree", "NoveLSM"} {
		if !strings.Contains(out, store) {
			t.Fatalf("fig12 missing store %s", store)
		}
	}
	// Improvement column must be positive for every row: cheap check via
	// absence of negative percentage markers like " -".
	for _, line := range strings.Split(out, "\n")[2:] {
		if strings.Contains(line, " -") && strings.Contains(line, "%") {
			t.Fatalf("fig12 row shows regression: %s", line)
		}
	}
}

func TestFig13Runs(t *testing.T) {
	res := runExp(t, "fig13", tiny)
	if res.Table.NumRows() != 16 {
		t.Fatalf("fig13 rows = %d, want 16", res.Table.NumRows())
	}
}

func TestFig14AllStrategiesCovered(t *testing.T) {
	res := runExp(t, "fig14", tiny)
	if res.Table.NumRows() != 2*3*7 {
		t.Fatalf("fig14 rows = %d, want 42 (2 datasets × 3 positions × 7 types)", res.Table.NumRows())
	}
}

func TestFig15ZeroPaddingIsFloor(t *testing.T) {
	res := runExp(t, "fig15", 0.25)
	s := res.Series[0]
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[0]*0.95 {
			t.Fatalf("padded fraction %v%% beat 0%% (%v < %v)", s.X[i], s.Y[i], s.Y[0])
		}
	}
}

func TestFig16PhasesPresent(t *testing.T) {
	res := runExp(t, "fig16", tiny)
	out := res.Table.String()
	for _, phase := range []string{"1:train", "2:write", "3:retrain", "4:write", "baseline:wear-leveling"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("fig16 missing phase %s", phase)
		}
	}
}

func TestFig17RetrainHelps(t *testing.T) {
	res := runExp(t, "fig17", tiny)
	if res.Table.NumRows() != 5 {
		t.Fatalf("fig17 rows = %d, want 5 scenarios", res.Table.NumRows())
	}
}

func TestFig18Runs(t *testing.T) {
	res := runExp(t, "fig18", tiny)
	if res.Table.NumRows() != 4 {
		t.Fatalf("fig18 rows = %d", res.Table.NumRows())
	}
}

func TestFig19WearConcentrated(t *testing.T) {
	res := runExp(t, "fig19", tiny)
	if len(res.Series) != 2 {
		t.Fatalf("fig19 series = %d, want 2 CDFs", len(res.Series))
	}
	// CDFs end at 1.
	for _, s := range res.Series {
		if s.Y[s.Len()-1] != 1 {
			t.Fatalf("CDF %s does not reach 1", s.Name)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"abl-search", "abl-joint", "abl-latent", "abl-diff", "abl-txn"} {
		runExp(t, id, tiny)
	}
}

func TestTable1RecoverGroups(t *testing.T) {
	res := runExp(t, "tbl01", 1)
	if res.Table.NumRows() != 18 {
		t.Fatalf("tbl01 rows = %d, want 18 (3 positions × 6 types)", res.Table.NumRows())
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "recovers the paper's three segment groups") {
			found = true
		}
	}
	if !found {
		t.Fatalf("model failed to recover the paper's Table 1 grouping: %v", res.Notes)
	}
}

func TestExtendedComparison(t *testing.T) {
	res := runExp(t, "exp-extended", tiny)
	if res.Table.NumRows() != 6 {
		t.Fatalf("exp-extended rows = %d, want 6 schemes", res.Table.NumRows())
	}
}

func TestPlacementHarnessConservesPool(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.DefaultConfig(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	p := index.NewFreeList(addrRange(16))
	items := make([][]byte, 40)
	for i := range items {
		items[i] = make([]byte, 8)
		items[i][0] = byte(i)
	}
	if _, err := runPlacement(dev, p, items, 8); err != nil {
		t.Fatal(err)
	}
	// After the drain, every address is free again.
	if p.FreeCount() != 16 {
		t.Fatalf("pool not conserved: %d free, want 16", p.FreeCount())
	}
	// Running again must therefore succeed.
	if _, err := runPlacement(dev, p, items, 8); err != nil {
		t.Fatal(err)
	}
}

func TestToBytesTruncatesAndPads(t *testing.T) {
	long := make([]float64, 100)
	for i := range long {
		long[i] = 1
	}
	b := toBytes(long, 4) // 32 bits kept
	for i, x := range b {
		if x != 0xff {
			t.Fatalf("byte %d = %x", i, x)
		}
	}
	short := []float64{1}
	b = toBytes(short, 2)
	if b[0] != 0x01 || b[1] != 0 {
		t.Fatalf("pad wrong: %x", b)
	}
}

func TestResultJSON(t *testing.T) {
	res := runExp(t, "fig01", tiny)
	doc, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		ID      string     `json:"id"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
		Series  []struct {
			Name string    `json:"name"`
			X    []float64 `json:"x"`
		} `json:"series"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, doc)
	}
	if parsed.ID != "fig01" || len(parsed.Rows) != 11 || len(parsed.Series) != 2 {
		t.Fatalf("JSON shape wrong: id=%s rows=%d series=%d", parsed.ID, len(parsed.Rows), len(parsed.Series))
	}
	if len(parsed.Headers) == 0 || len(parsed.Rows[0]) != len(parsed.Headers) {
		t.Fatal("headers/rows mismatch")
	}
}

func TestFaultSweepShape(t *testing.T) {
	res := runExp(t, "exp-fault", tiny)
	rows := res.Table.Rows()
	if len(rows) != 4 {
		t.Fatalf("exp-fault rows = %d, want 4 placement×retirement modes", len(rows))
	}
	// wrong_reads (last column) must be zero in every mode — the runner
	// also enforces this internally, but keep the bar visible here.
	for _, row := range rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("mode %q served wrong reads: %v", row[0], row)
		}
	}
}

func TestShardParityFlat(t *testing.T) {
	res := runExp(t, "exp-shard", 0.25)
	rows := res.Table.Rows()
	if len(rows) != 3 {
		t.Fatalf("exp-shard rows = %d, want 3 shard counts", len(rows))
	}
	for _, row := range rows {
		delta, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparsable delta %q: %v", row[2], err)
		}
		// Sharding must not cost placement quality: flips/databit stays
		// within a few percent of the unsharded store. The bound is looser
		// than the 5% bench-scale acceptance bar because this runs tiny.
		if math.Abs(delta) > 10 {
			t.Fatalf("shards=%s flips/databit drifted %.1f%% from unsharded", row[0], delta)
		}
	}
}

func TestHotColdShape(t *testing.T) {
	res := runExp(t, "exp-hotcold", tiny)
	rows := res.Table.Rows()
	if len(rows) != 4 {
		t.Fatalf("exp-hotcold rows = %d, want 2 read modes + 2 wear modes", len(rows))
	}
	// The cache must absorb device reads: cached reads/op strictly below
	// uncached, and a positive hit rate.
	uncached, err := strconv.ParseFloat(rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := strconv.ParseFloat(rows[1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached >= uncached {
		t.Fatalf("cache absorbed nothing: %.3f dev reads/op cached vs %.3f uncached", cached, uncached)
	}
	hit, err := strconv.ParseFloat(rows[1][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit <= 0 {
		t.Fatalf("cached hit rate %.1f%%, want > 0", hit)
	}
	// Steering must not reach the wear-out cliff earlier than unsteered
	// placement, and must actually steer.
	frPlain, err := strconv.ParseFloat(rows[2][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	frSteer, err := strconv.ParseFloat(rows[3][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if frPlain >= 0 && frSteer >= 0 && frSteer < frPlain {
		t.Fatalf("steering retired earlier: op %v vs %v unsteered", frSteer, frPlain)
	}
	if steered, _ := strconv.ParseFloat(rows[3][6], 64); steered <= 0 {
		t.Fatalf("steered mode reported %v steered placements", steered)
	}
}
