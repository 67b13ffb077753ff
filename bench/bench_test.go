package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

func tinyOptions() options {
	return options{geom: tinyGeometry, seed: 5, seconds: 8, quick: true, untraced: true, traced: true}
}

// Every workload, both passes, on the tiny geometry: nothing fails, the
// replay still mirrors the store, and metrics a workload's layers cannot
// produce stay absent.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			if sp.clients > runtime.NumCPU() {
				wr, err := runWorkload(sp, tinyOptions())
				if err != nil || wr.Skipped == "" {
					t.Fatalf("want a skip on %d CPUs, got %+v, %v", runtime.NumCPU(), wr, err)
				}
				return
			}
			wr, err := runWorkload(sp, tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			if wr.Failed != 0 || wr.FailFrac != 0 || wr.Attempted == 0 {
				t.Fatalf("%d of %d ops failed", wr.Failed, wr.Attempted)
			}
			e2e := map[string]float64{}
			for _, m := range wr.EndToEnd {
				e2e[m.Name] = m.Value
			}
			for _, d := range endToEndDefs {
				if v, ok := e2e[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %g, present %v", d.name, v, ok)
				}
			}
			layer := map[string]float64{}
			for _, m := range wr.PerLayer {
				layer[m.Name] = m.Value
			}
			if r := layer["kvstore.replay_flips_ratio"]; r != 1 {
				t.Errorf("replay flipped %g× the bits kvstore.Put did: it no longer mirrors the store", r)
			}
			for name, want := range map[string]bool{
				"hotcache.hit_frac":   sp.cache,
				"txn.commit_ns":       sp.rf > 1,
				"replica.put_ns":      sp.rf > 1,
				"shard.imbalance":     sp.shards > 1,
				"kvstore.scaling_2c":  sp.clients > 1,
				"loadgen.late_p99_us": sp.openRate > 0,
				"nvm.write_ns":        sp.rf == 1,
				"core.predict_ns":     true,
				"kvstore.put_ns":      true,
			} {
				if _, got := layer[name]; got != want {
					t.Errorf("%s present = %v, want %v", name, got, want)
				}
			}
			if sp.cache {
				if h := layer["hotcache.hit_frac"]; h <= 0 || h >= 1 {
					t.Errorf("hit_frac %g: the cache is idle or saturated", h)
				}
			}
		})
	}
}

// The driver's line carries exactly the metrics of the pass that ran.
func TestDriverLine(t *testing.T) {
	var out bytes.Buffer
	// run() at paperGeometry would take half a minute, so drive its pieces
	// on the tiny one
	sp, _ := findWorkload("put-1c")
	o := tinyOptions()
	o.traced = false
	wr, err := runWorkload(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	line, err := driverLine(wr, endToEndDefs, wr.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(line)
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Errorf("bad result header in %s", line)
	}
	if len(res.Metrics) != len(endToEndDefs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Value == nil || *m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("metric %s: %+v", d.name, m)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go and workloads.go name the
// same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bf.Command, " ") != "go run ./bench" || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(bf.EndToEnd), len(endToEndDefs))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s")
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, d)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(put float64, fail float64) Report {
		return Report{Workloads: []WorkloadResult{{
			Workload: "put-1c", FailFrac: fail,
			EndToEnd: []Metric{
				{Name: "put_p50_us", Unit: "us", Summary: Summary{Value: put, Q1: put - 0.5, Q3: put + 0.5, N: 20}},
				{Name: "ops_per_s", Unit: "1/s", Summary: Summary{Value: 1e6 / put, Q1: 1e6/put - 50, Q3: 1e6/put + 50, N: 20}},
			},
		}}}
	}
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"put_p50_us","unit":"us","better":"lower","bound":0.1},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareReports(&out, mk(50, 0), mk(52, 0), bf); err != nil {
		t.Errorf("+4%% flagged: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, mk(50, 0), mk(60, 0), bf); !errors.Is(err, errRegressed) {
		t.Errorf("+20%% not flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no regressed row:\n%s", out.String())
	}
	out.Reset()
	if err := compareReports(&out, mk(50, 0), mk(50, 0.001), bf); !errors.Is(err, errRegressed) {
		t.Errorf("a rising fail_frac passed: %v", err)
	}
}
