package main

import (
	"e2nvm"
)

// Traffic mixes. The YCSB letters are passed to internal/workload as they
// are; mixPutOnly is 100 % update over zipf(0.99) keys.
const (
	mixPutOnly byte = 'P'
	mixYCSBA   byte = 'A' // 50 % GetInto / 50 % Put
	mixYCSBB   byte = 'B' // 95 % GetInto / 5 % Put
)

// spec is one named workload: the store configuration it opens and the
// traffic it drives. Why each exists is in BENCHMARK.json and README.md.
type spec struct {
	name string

	shards, rf int
	cache      bool
	cacheBytes int
	emulate    bool // EmulateDeviceLatency

	clients int
	mix     byte
	// openRate > 0 makes the workload open loop: one pacing goroutine
	// issues at this fixed rate and times every op from its due time.
	openRate float64
	// opsPerSecond sizes the tape: the timed phase holds opsPerSecond ×
	// -seconds operations. Op counts are fixed, not time-bounded, so the
	// device counters of a single-client run repeat exactly; the rates
	// are what this store sustains on the 2-core sandbox the benchmark
	// was calibrated on, so the timed phase lasts about -seconds there.
	opsPerSecond int
}

// workloads are the benchmark's four, in report order.
var workloads = []spec{
	{
		name: "put-1c", shards: 1, rf: 1,
		clients: 1, mix: mixPutOnly, opsPerSecond: 15000,
	},
	{
		name: "read-zipf-open", shards: 1, rf: 1,
		// 128 KiB holds about half the working set and serves ~0.8 of the
		// reads: hits, misses, fills and evictions all occur, and the median
		// Get is a hit. At 64 KiB the hit share is ~0.6 and the median sits
		// on the edge between the hit and the miss mode, where it swings by
		// 30 % from seed to seed.
		cache: true, cacheBytes: 128 << 10, emulate: true,
		clients: 1, mix: mixYCSBB, openRate: 50000, opsPerSecond: 50000,
	},
	{
		// put-1c's traffic on the durable configuration, so that the two
		// differ by the txn and replica layers and nothing else. With reads
		// on this tape their p99 sat at 2 µs, on the knee of the scheduling
		// noise the follower goroutines add, and read 2.5× higher whenever
		// the host's second vCPU was busy elsewhere.
		name: "durable-rf2", shards: 2, rf: 2,
		clients: 1, mix: mixPutOnly, opsPerSecond: 11000,
	},
	{
		name: "mixed-2c", shards: 1, rf: 1,
		clients: 2, mix: mixYCSBA, opsPerSecond: 28000,
	},
}

// writeOnly reports whether the tape has no reads; the read-back sweep is
// then the run's Get sample.
func (sp spec) writeOnly() bool { return sp.mix == mixPutOnly }

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// config is the facade configuration of a workload at geometry g. Fault
// injection, AutoRetrain and wear leveling stay off (their zero values).
func (sp spec) config(g geometry, seed int64, t *tape) e2nvm.Config {
	return e2nvm.Config{
		SegmentSize:          g.segSize,
		NumSegments:          g.numSegs,
		Shards:               sp.shards,
		ReplicationFactor:    sp.rf,
		CacheEnabled:         sp.cache,
		CacheBytes:           sp.cacheBytes,
		EmulateDeviceLatency: sp.emulate,
		Clusters:             g.clusters,
		TrainEpochs:          g.epochs,
		HiddenDim:            g.hidden,
		Seed:                 seed,
		// Shards fill their zones concurrently, so the callback only
		// copies images generated up front in address order.
		SeedContent: func(addr int, seg []byte) { copy(seg, t.seedImages[addr]) },
	}
}
