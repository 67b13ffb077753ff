package main

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json lists the same names, units, directions and
// bounds, and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it regressed.
	bound float64
}

// endToEndDefs are what a user of the store sees, per workload. host =
// wall/CPU of this machine, sim = the modelled PCM device.
var endToEndDefs = []metricDef{
	// host: every bound is the contract's widest. Ten runs of one commit on
	// the 2-vCPU sandbox spread 5-10 % (inter-quartile range over median)
	// on these, and the host drifts by more than that over tens of minutes
	// (README.md, "Measured spread"); a tighter bound would call that drift
	// a regression.
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"put_p99_us", "us", "lower", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"get_p99_us", "us", "lower", 0.25},
	// sim: exact for one seed on the single-client workloads; the bound
	// covers the seed-to-seed spread (a new seed is a new model and new
	// content), which is widest for the maximum of a distribution
	{"flips_per_data_bit", "ratio", "lower", 0.10},
	{"bits_flipped_per_put", "bits", "lower", 0.10},
	{"energy_nj_per_put", "nJ", "lower", 0.10},
	{"max_seg_writes_per_kput", "count", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.10}, // host
}

// perLayerDefs are the traced run's metrics, grouped by the package
// whose public functions the benchmark timed or counted.
var perLayerDefs = []metricDef{
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.timer_ns", unit: "ns", better: "lower"},
	{name: "loadgen.stalled_frac", unit: "ratio", better: "lower"},
	{name: "facade.put_ns", unit: "ns", better: "lower"},
	{name: "facade.get_ns", unit: "ns", better: "lower"},
	{name: "facade.allocs_per_op", unit: "count", better: "lower"},
	{name: "facade.bytes_per_op", unit: "B", better: "lower"},
	{name: "facade.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "hotcache.hit_frac", unit: "ratio", better: "higher"},
	{name: "hotcache.evictions_per_kop", unit: "count", better: "lower"},
	{name: "hotcache.get_hit_ns", unit: "ns", better: "lower"},
	{name: "hotcache.get_miss_ns", unit: "ns", better: "lower"},
	{name: "hotcache.fill_ns", unit: "ns", better: "lower"},
	{name: "hotcache.invalidate_ns", unit: "ns", better: "lower"},
	{name: "hotcache.hotness_ns", unit: "ns", better: "lower"},
	{name: "shard.route_ns", unit: "ns", better: "lower"},
	{name: "shard.imbalance", unit: "ratio", better: "lower"},
	{name: "replica.put_ns", unit: "ns", better: "lower"},
	{name: "replica.ship_ns", unit: "ns", better: "lower"},
	{name: "replica.follower_flips_frac", unit: "ratio", better: "lower"},
	{name: "replica.max_lag", unit: "count", better: "lower"},
	{name: "kvstore.put_ns", unit: "ns", better: "lower"},
	{name: "kvstore.get_ns", unit: "ns", better: "lower"},
	{name: "kvstore.fallback_frac", unit: "ratio", better: "lower"},
	{name: "kvstore.steered_frac", unit: "ratio", better: "higher"},
	{name: "kvstore.unattributed_frac", unit: "ratio", better: "lower"},
	{name: "kvstore.replay_flips_ratio", unit: "ratio", better: "lower"},
	{name: "kvstore.scaling_2c", unit: "ratio", better: "higher"},
	{name: "kvstore.pool_build_s", unit: "s", better: "lower"},
	{name: "core.predict_ns", unit: "ns", better: "lower"},
	{name: "core.predict_full_ns", unit: "ns", better: "lower"},
	{name: "core.predict_calls_per_put", unit: "count", better: "lower"},
	{name: "core.predict_block8_ns_per_item", unit: "ns", better: "lower"},
	{name: "core.train_s", unit: "s", better: "lower"},
	{name: "padding.pad_ns", unit: "ns", better: "lower"},
	{name: "padding.bytes_padded_per_put", unit: "B", better: "lower"},
	{name: "infer.predict_ns", unit: "ns", better: "lower"},
	{name: "infer.table_bytes", unit: "B", better: "lower"},
	{name: "infer.group_bits", unit: "bits", better: "higher"},
	{name: "dap.get_ns", unit: "ns", better: "lower"},
	{name: "dap.add_ns", unit: "ns", better: "lower"},
	{name: "dap.free_min_cluster", unit: "count", better: "higher"},
	{name: "dap.footprint_bytes", unit: "B", better: "lower"},
	{name: "index.get_ns", unit: "ns", better: "lower"},
	{name: "index.put_ns", unit: "ns", better: "lower"},
	{name: "nvm.write_ns", unit: "ns", better: "lower"},
	{name: "nvm.peek_ns", unit: "ns", better: "lower"},
	{name: "nvm.read_ns", unit: "ns", better: "lower"},
	{name: "nvm.sim_write_ns", unit: "ns", better: "lower"},
	{name: "nvm.writes_per_put", unit: "count", better: "lower"},
	{name: "nvm.reads_per_get", unit: "count", better: "lower"},
	{name: "nvm.flips_per_write", unit: "bits", better: "lower"},
	{name: "nvm.lines_skipped_frac", unit: "ratio", better: "higher"},
	{name: "txn.commit_ns", unit: "ns", better: "lower"},
	{name: "txn.log_flips_per_commit", unit: "bits", better: "lower"},
	{name: "txn.log_seg_write_share", unit: "ratio", better: "lower"},
	{name: "bench.preload_s", unit: "s", better: "lower"},
	{name: "bench.peak_rss_mb", unit: "MiB", better: "lower"},
}

// Metric is one reported value.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	Summary
}

// metricSet collects metrics by name and emits them in table order, so a
// metric that does not apply to a workload is simply never set: absent,
// not zero.
type metricSet struct {
	defs []metricDef
	vals map[string]Summary
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]Summary, len(defs))}
}

func (s *metricSet) set(name string, v float64) { s.vals[name] = single(v) }

func (s *metricSet) setSummary(name string, v Summary) { s.vals[name] = v }

func (s *metricSet) list() []Metric {
	out := make([]Metric, 0, len(s.vals))
	for _, d := range s.defs {
		if v, ok := s.vals[d.name]; ok {
			out = append(out, Metric{Name: d.name, Unit: d.unit, Summary: v})
		}
	}
	return out
}

// endToEnd reduces an untraced measurement to the end-to-end metrics.
func endToEnd(sp spec, ms measurement) []Metric {
	out := newMetricSet(endToEndDefs)
	out.set("setup_s", ms.setupS)

	nc := len(ms.clients)
	per := 0
	if n := len(ms.ph.wall); n > 0 {
		per = ms.ph.issued / n // ops per slice, all clients
	}
	var rate, cpu []float64
	for s, w := range ms.ph.wall {
		rate = append(rate, float64(per)*1e9/float64(w))
		cpu = append(cpu, float64(ms.ph.cpu[s])/float64(per)/1e3)
	}
	out.setSummary("ops_per_s", summarize(rate))
	out.setSummary("cpu_us_per_op", summarize(cpu))

	puts, gets := sliceLatencies(ms, per/max(nc, 1))
	if sp.writeOnly() {
		// a tape without reads: the read-back sweep is the Get sample, one
		// pool of per-key latencies with no slices to spread across
		gets = [][]float64{readBack(ms.sweepLat)}
	}
	for _, q := range []struct {
		name   string
		slices [][]float64
		q      float64
	}{
		{"put_p50_us", puts, 0.50}, {"put_p99_us", puts, 0.99},
		{"get_p50_us", gets, 0.50}, {"get_p99_us", gets, 0.99},
	} {
		if s, ok := slicePercentile(q.slices, q.q, coarseRun); ok {
			out.setSummary(q.name, s.scaled(1e-3))
		}
	}

	if ms.puts > 0 {
		p := float64(ms.puts)
		out.set("flips_per_data_bit", ms.m.FlipsPerDataBit)
		out.set("bits_flipped_per_put", float64(ms.m.BitsFlipped)/p)
		out.set("energy_nj_per_put", ms.m.EnergyPJ/p/1e3)
		out.set("max_seg_writes_per_kput", float64(ms.m.MaxSegmentWrites)*1e3/p)
	}
	out.set("rss_mb", ms.rssMiB)
	return out.list()
}

// sliceLatencies splits the timed ops' charged latencies by kind and
// slice, pooling the clients. perClient is one client's ops per slice.
func sliceLatencies(ms measurement, perClient int) (puts, gets [][]float64) {
	n := len(ms.ph.wall)
	puts, gets = make([][]float64, n), make([][]float64, n)
	for s := 0; s < n; s++ {
		lo := ms.warm + s*perClient
		for _, c := range ms.clients {
			for i := lo; i < lo+perClient; i++ {
				if c.ops[i].kind == opPut {
					puts[s] = append(puts[s], float64(c.lat[i]))
				} else {
					gets[s] = append(gets[s], float64(c.lat[i]))
				}
			}
		}
	}
	return puts, gets
}
