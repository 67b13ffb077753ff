package e2nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStress hammers one store from many goroutines mixing every
// public entry point. Each writer owns a disjoint key stripe and mirrors
// its own writes, so any cross-thread interference shows up as a wrong
// read; -race covers the memory-model side. Runs on both an unsharded and
// a sharded store.
func TestConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardedConfig(shards)
			cfg.NumSegments = 192 * shards
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			const (
				workers = 4
				keysPer = 32
				rounds  = 40
			)
			// Worker w owns keys [w*keysPer, (w+1)*keysPer). Values carry
			// the key and a generation stamp so a read can verify it got
			// some complete version of its own key's value.
			encode := func(buf []byte, key uint64, gen uint32) []byte {
				buf = buf[:0]
				buf = binary.LittleEndian.AppendUint64(buf, key)
				return binary.LittleEndian.AppendUint32(buf, gen)
			}
			check := func(key uint64, v []byte) error {
				if len(v) != 12 {
					return fmt.Errorf("key %d: value len %d", key, len(v))
				}
				if got := binary.LittleEndian.Uint64(v); got != key {
					return fmt.Errorf("key %d: value stamped for key %d", key, got)
				}
				return nil
			}

			var wg sync.WaitGroup
			errs := make(chan error, workers+3)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w * keysPer)
					live := map[uint64]bool{}
					buf := make([]byte, 0, 16)
					for r := 0; r < rounds; r++ {
						for i := uint64(0); i < keysPer; i++ {
							k := base + i
							switch (r + int(i)) % 4 {
							case 0, 1: // write / overwrite
								if err := s.Put(k, encode(buf, k, uint32(r))); err != nil {
									errs <- fmt.Errorf("Put(%d): %w", k, err)
									return
								}
								live[k] = true
							case 2: // read own key
								v, ok, err := s.GetInto(k, buf)
								if err != nil {
									errs <- fmt.Errorf("GetInto(%d): %w", k, err)
									return
								}
								if ok != live[k] {
									errs <- fmt.Errorf("GetInto(%d) found=%v, want %v", k, ok, live[k])
									return
								}
								if ok {
									if err := check(k, v); err != nil {
										errs <- err
										return
									}
									buf = v
								}
							case 3: // delete
								ok, err := s.Delete(k)
								if err != nil {
									errs <- fmt.Errorf("Delete(%d): %w", k, err)
									return
								}
								if ok != live[k] {
									errs <- fmt.Errorf("Delete(%d) found=%v, want %v", k, ok, live[k])
									return
								}
								delete(live, k)
							}
						}
					}
					// Settle each stripe into a known final state: every
					// key present with its final generation.
					for i := uint64(0); i < keysPer; i++ {
						k := base + i
						if err := s.Put(k, encode(buf, k, rounds)); err != nil {
							errs <- fmt.Errorf("final Put(%d): %w", k, err)
							return
						}
					}
				}(w)
			}

			// Background readers exercising the aggregate entry points
			// while the writers run.
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(3)
			go func() { // scanner
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := s.Scan(0, workers*keysPer, func(k uint64, v []byte) bool {
						if err := check(k, v); err != nil {
							errs <- fmt.Errorf("scan: %w", err)
							return false
						}
						return true
					})
					if err != nil {
						errs <- fmt.Errorf("Scan: %w", err)
						return
					}
				}
			}()
			go func() { // scrubber + metrics
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Scrub(32); err != nil {
						errs <- fmt.Errorf("Scrub: %w", err)
						return
					}
					_ = s.Metrics()
					_ = s.Health()
					_ = s.Len()
				}
			}()
			go func() { // retrainer
				defer bg.Done()
				for i := 0; i < 2; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Retrain(); err != nil {
						errs <- fmt.Errorf("Retrain: %w", err)
						return
					}
				}
			}()

			wg.Wait()
			close(stop)
			bg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				return
			}

			// Final state: every stripe fully present and correct.
			if s.Len() != workers*keysPer {
				t.Fatalf("final Len = %d, want %d", s.Len(), workers*keysPer)
			}
			for k := uint64(0); k < workers*keysPer; k++ {
				v, ok, err := s.Get(k)
				if err != nil || !ok {
					t.Fatalf("final Get(%d) = (%v,%v)", k, ok, err)
				}
				if err := check(k, v); err != nil {
					t.Fatal(err)
				}
				if gen := binary.LittleEndian.Uint32(v[8:]); gen != rounds {
					t.Fatalf("key %d generation %d, want %d", k, gen, rounds)
				}
			}
		})
	}
}

// TestConcurrentStressZipfCache hammers a replicated, cache-enabled store
// with a zipfian mixed workload: hot keys are read over and over (served
// from DRAM) while their owners keep overwriting them, with scrubbing,
// retraining, and a mid-run leader fence (failover) underneath. Each key
// has a single writer publishing the highest acknowledged generation, so
// any cache read older than an acknowledged write — a stale hit surviving
// invalidation — is detected, under -race for the memory-model side.
func TestConcurrentStressZipfCache(t *testing.T) {
	cfg := replConfig(2, 2)
	cfg.NumSegments = 128 * 2
	cfg.CacheEnabled = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		workers = 4
		keysPer = 16
		rounds  = 30
		nKeys   = workers * keysPer
	)
	// acked[k] is the highest generation whose Put has returned. Put
	// invalidates the cache before acknowledging, so once a reader loads
	// acked[k] any subsequent read must observe that generation or newer.
	acked := make([]atomic.Uint32, nKeys)
	encode := func(buf []byte, key uint64, gen uint32) []byte {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, key)
		return binary.LittleEndian.AppendUint32(buf, gen)
	}
	check := func(key uint64, floor uint32, v []byte) error {
		if len(v) != 12 {
			return fmt.Errorf("key %d: value len %d", key, len(v))
		}
		if got := binary.LittleEndian.Uint64(v); got != key {
			return fmt.Errorf("key %d: value stamped for key %d", key, got)
		}
		if gen := binary.LittleEndian.Uint32(v[8:]); gen < floor {
			return fmt.Errorf("key %d: stale read: generation %d < acknowledged %d", key, gen, floor)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers+4)
	fence := make(chan struct{}) // closed by writer 0 at the half-way mark
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * keysPer)
			r := rand.New(rand.NewSource(int64(w) + 1))
			zipf := rand.NewZipf(r, 1.3, 1, keysPer-1)
			gens := make([]uint32, keysPer)
			buf := make([]byte, 0, 16)
			for round := 0; round < rounds; round++ {
				if w == 0 && round == rounds/2 {
					close(fence)
				}
				for i := 0; i < keysPer; i++ {
					off := zipf.Uint64() // hot-skewed pick within the stripe
					k := base + off
					if i%3 == 0 { // overwrite a (likely hot) key
						gens[off]++
						if err := s.Put(k, encode(buf, k, gens[off])); err != nil {
							errs <- fmt.Errorf("Put(%d): %w", k, err)
							return
						}
						acked[k].Store(gens[off])
						continue
					}
					floor := acked[k].Load()
					v, ok, err := s.GetInto(k, buf)
					if err != nil {
						errs <- fmt.Errorf("GetInto(%d): %w", k, err)
						return
					}
					if !ok {
						if floor > 0 {
							errs <- fmt.Errorf("GetInto(%d) lost acknowledged generation %d", k, floor)
							return
						}
						continue
					}
					if err := check(k, floor, v); err != nil {
						errs <- err
						return
					}
					buf = v
				}
			}
			// Settle the stripe: every key present at a final generation.
			for i := uint64(0); i < keysPer; i++ {
				k := base + i
				gens[i] = rounds * keysPer // above anything the loop produced
				if err := s.Put(k, encode(buf, k, gens[i])); err != nil {
					errs <- fmt.Errorf("final Put(%d): %w", k, err)
					return
				}
				acked[k].Store(gens[i])
			}
		}(w)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(3)
	go func() { // cross-stripe zipfian reader: cache hits vs acked floors
		defer bg.Done()
		r := rand.New(rand.NewSource(99))
		zipf := rand.NewZipf(r, 1.3, 1, nKeys-1)
		buf := make([]byte, 0, 16)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := zipf.Uint64()
			floor := acked[k].Load()
			v, ok, err := s.GetInto(k, buf)
			if err != nil {
				errs <- fmt.Errorf("reader GetInto(%d): %w", k, err)
				return
			}
			if !ok {
				if floor > 0 {
					errs <- fmt.Errorf("reader GetInto(%d) lost acknowledged generation %d", k, floor)
					return
				}
				continue
			}
			if err := check(k, floor, v); err != nil {
				errs <- fmt.Errorf("reader: %w", err)
				return
			}
			buf = v
		}
	}()
	go func() { // scrubber + metrics
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Scrub(16); err != nil {
				errs <- fmt.Errorf("Scrub: %w", err)
				return
			}
			_ = s.Metrics()
			_ = s.Health()
		}
	}()
	go func() { // retrainer, then a mid-run leader fence (failover)
		defer bg.Done()
		if err := s.Retrain(); err != nil {
			errs <- fmt.Errorf("Retrain: %w", err)
			return
		}
		select {
		case <-fence:
		case <-stop:
			return
		}
		for addr := s.starts[0]; addr < s.starts[1]; addr++ {
			if err := s.FailSegment(addr); err != nil {
				errs <- fmt.Errorf("FailSegment(%d): %w", addr, err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Final coherence pass: every key's cached read matches the store's
	// authoritative bytes and carries at least its acknowledged generation.
	for k := uint64(0); k < nKeys; k++ {
		cv, cok, cerr := s.Get(k)
		uv, uok, uerr := s.router.GetInto(k, nil)
		if cerr != nil || uerr != nil || cok != uok || !bytes.Equal(cv, uv) {
			t.Fatalf("cache/store divergence on %d: (%q,%v,%v) vs (%q,%v,%v)", k, cv, cok, cerr, uv, uok, uerr)
		}
		if !cok {
			t.Fatalf("final Get(%d) missing", k)
		}
		if err := check(k, acked[k].Load(), cv); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.CacheHits == 0 {
		t.Fatalf("zipfian workload produced no cache hits: %+v", m)
	}
}
