package e2nvm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func shardedConfig(shards int) Config {
	cfg := smallConfig()
	cfg.NumSegments = 64 * shards
	cfg.Shards = shards
	return cfg
}

func TestShardedRoundTrip(t *testing.T) {
	s, err := Open(shardedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	buf := make([]byte, 0, 16)
	for k := uint64(0); k < keys; k++ {
		want := fmt.Sprintf("v-%d", k)
		v, ok, err := s.GetInto(k, buf)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("GetInto(%d) = (%q,%v,%v)", k, v, ok, err)
		}
		buf = v[:0]
	}
	// Scan must merge the four shards back into ascending key order.
	var seen []uint64
	if err := s.Scan(8, 39, func(k uint64, v []byte) bool {
		if string(v) != fmt.Sprintf("v-%d", k) {
			t.Fatalf("key %d carries %q", k, v)
		}
		seen = append(seen, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 32 {
		t.Fatalf("scan visited %d keys, want 32", len(seen))
	}
	for i, k := range seen {
		if k != uint64(8+i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	for k := uint64(0); k < keys; k += 2 {
		ok, err := s.Delete(k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v,%v)", k, ok, err)
		}
	}
	if s.Len() != keys/2 {
		t.Fatalf("Len after deletes = %d", s.Len())
	}
}

func TestShardsValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = cfg.NumSegments + 1
	if _, err := Open(cfg); err == nil {
		t.Fatal("expected error for more shards than segments")
	}
}

// TestShardedMetricsAggregate checks, across {RF 1, 2} × {cache off, on},
// that every additive Metrics field is the sum over ShardMetrics (which is
// index-aligned with the shards) and MaxSegmentWrites is the maximum. The
// two ratios are derived from the sums, and the cache counters exist only
// in the aggregate (the cache fronts the whole keyspace, not one shard).
func TestShardedMetricsAggregate(t *testing.T) {
	for _, rf := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("rf=%d/cache=%v", rf, cached), func(t *testing.T) {
				cfg := replConfig(3, rf)
				cfg.CacheEnabled = cached
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				// Write, read (with the cache on this is what makes keys
				// known to the steering policy), and overwrite.
				for round := 0; round < 3; round++ {
					for k := uint64(0); k < 30; k++ {
						if err := s.Put(k, []byte{byte(k), byte(round)}); err != nil {
							t.Fatal(err)
						}
						if _, _, err := s.Get(k); err != nil {
							t.Fatal(err)
						}
					}
				}
				if rf > 1 {
					// One failover, so the replication counters are live too.
					fenceShard(t, s, 0)
					for _, k := range keysOfShard(3, 0, 4) {
						if err := s.Put(k, []byte("failed-over")); err != nil {
							t.Fatal(err)
						}
					}
				}
				m := s.Metrics()
				per := s.ShardMetrics()
				if len(per) != 3 {
					t.Fatalf("ShardMetrics len = %d", len(per))
				}
				if m.Writes == 0 || m.BitsWritten == 0 || m.Reads == 0 {
					t.Fatalf("aggregate Metrics did not count activity: %+v", m)
				}
				if cached && (m.SteeredPlacements == 0 || m.CacheHits+m.CacheMisses == 0) {
					t.Fatalf("cache on, but nothing steered or no cache traffic: %+v", m)
				}
				if rf > 1 && m.Failovers != 1 {
					t.Fatalf("Failovers = %d, want 1", m.Failovers)
				}
				agg := reflect.ValueOf(m)
				for f := 0; f < agg.NumField(); f++ {
					name := agg.Type().Field(f).Name
					var sumU, maxU uint64
					var sumI int64
					var sumF float64
					for _, pm := range per {
						switch v := reflect.ValueOf(pm).Field(f); v.Kind() {
						case reflect.Uint64:
							sumU += v.Uint()
							maxU = max(maxU, v.Uint())
						case reflect.Int:
							sumI += v.Int()
						case reflect.Float64:
							sumF += v.Float()
						default:
							t.Fatalf("Metrics.%s has kind %s: teach this test how it aggregates", name, v.Kind())
						}
					}
					got := agg.Field(f)
					switch name {
					case "AvgWriteLatencyNs", "FlipsPerDataBit":
						// Ratios of summed fields, not sums themselves.
					case "CacheHits", "CacheMisses", "CacheEvictions":
						if sumU != 0 {
							t.Errorf("per-shard %s sums to %d, want 0 (aggregate-only)", name, sumU)
						}
					case "MaxSegmentWrites":
						if got.Uint() != maxU {
							t.Errorf("MaxSegmentWrites = %d, want the per-shard max %d", got.Uint(), maxU)
						}
					default:
						switch got.Kind() {
						case reflect.Uint64:
							if got.Uint() != sumU {
								t.Errorf("%s = %d, per-shard sum %d", name, got.Uint(), sumU)
							}
						case reflect.Int:
							if got.Int() != sumI {
								t.Errorf("%s = %d, per-shard sum %d", name, got.Int(), sumI)
							}
						case reflect.Float64:
							if diff := got.Float() - sumF; diff > 1e-6*sumF || diff < -1e-6*sumF {
								t.Errorf("%s = %g, per-shard sum %g", name, got.Float(), sumF)
							}
						}
					}
				}
				for i, pm := range per {
					if pm.Writes == 0 {
						t.Fatalf("shard %d saw no writes; per-shard = %+v", i, per)
					}
				}
			})
		}
	}
}

// TestResetMetricsZeroesEverything is the regression test for the old
// ResetMetrics, which reset only the device counters and left the
// store-level ones (Fallbacks, Retrains, WornWrites, ...) running.
func TestResetMetricsZeroesEverything(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardedConfig(shards)
			cfg.VerifyWrites = true
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 16; k++ {
				if err := s.Put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := s.Get(1); err != nil {
				t.Fatal(err)
			}
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
			// Fence a segment and write through it so WornWrites, Retired,
			// and Relocations move too.
			if err := s.FailSegment(0); err != nil {
				t.Fatal(err)
			}
			for k := uint64(100); k < 140; k++ {
				if err := s.Put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Scrub(cfg.NumSegments); err != nil {
				t.Fatal(err)
			}
			before := s.Metrics()
			if before.Writes == 0 || before.Retrains == 0 {
				t.Fatalf("setup did not move the counters: %+v", before)
			}

			s.ResetMetrics()
			got := s.Metrics()
			// StuckBits and FailedSegments describe current device state,
			// not cumulative activity, and survive a reset by design (the
			// cells are still stuck). Everything else must be zero.
			got.StuckBits, got.FailedSegments = 0, 0
			if got != (Metrics{}) {
				t.Fatalf("Metrics after ResetMetrics = %+v, want all counters zero", got)
			}

			// Counters keep working after the reset.
			if err := s.Put(1, []byte{1}); err != nil {
				t.Fatal(err)
			}
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
			after := s.Metrics()
			if after.Writes == 0 || after.Retrains != shards {
				t.Fatalf("post-reset Metrics = %+v, want fresh writes and %d retrains", after, shards)
			}
		})
	}
}

// TestShardedFaultMapping drives the global-address fault API on a sharded
// store: fencing an address in shard 1's zone must degrade shard 1 only.
func TestShardedFaultMapping(t *testing.T) {
	cfg := shardedConfig(2)
	cfg.VerifyWrites = true
	cfg.DegradeThreshold = 0.05
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailSegment(cfg.NumSegments); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("FailSegment(out of range) = %v, want ErrBadAddress", err)
	}
	if err := s.InjectStuckAt(-1, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("InjectStuckAt(-1) = %v, want ErrBadAddress", err)
	}
	// Shard 1 owns global segments [64, 128).
	for a := 64; a < 72; a++ {
		if err := s.FailSegment(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scrub(cfg.NumSegments); err != nil {
		t.Fatal(err)
	}
	per := s.ShardHealth()
	if per[0].Degraded || !per[1].Degraded {
		t.Fatalf("per-shard Degraded = %v/%v, want shard 1 only", per[0].Degraded, per[1].Degraded)
	}
	if h := s.Health(); !h.Degraded {
		t.Fatalf("aggregate Health must surface the degraded shard: %+v", h)
	}
	if h := s.Health(); h.DataSegments != per[0].DataSegments+per[1].DataSegments {
		t.Fatalf("aggregate DataSegments %d != per-shard sum", h.DataSegments)
	}
}

// TestOpenWithModelSharded saves an unsharded store's model and restores
// it into a sharded store, round-tripping data through every shard.
func TestOpenWithModelSharded(t *testing.T) {
	src, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := shardedConfig(2)
	s, err := OpenWithModel(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 2 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	if s.Clusters() != src.Clusters() {
		t.Fatalf("Clusters = %d, want %d", s.Clusters(), src.Clusters())
	}
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 32; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, []byte{byte(k)}) {
			t.Fatalf("Get(%d) = (%v,%v,%v)", k, v, ok, err)
		}
	}
}

// TestShardOneMatchesUnsharded locks in that Shards=1 is byte-identical to
// the pre-sharding store: same seeds, same placement, same flip counts.
func TestShardOneMatchesUnsharded(t *testing.T) {
	run := func(cfg Config) Metrics {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 40; k++ {
			if err := s.Put(k, []byte(fmt.Sprintf("value-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		return s.Metrics()
	}
	base := run(smallConfig())
	cfg := smallConfig()
	cfg.Shards = 1
	if got := run(cfg); got != base {
		t.Fatalf("Shards=1 diverged from unsharded:\n got %+v\nwant %+v", got, base)
	}
}
