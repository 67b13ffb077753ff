package main

import (
	"errors"
	"testing"
	"time"
)

// tinyGeometry keeps the tests to seconds: 64 B segments, one epoch, a
// 16-wide hidden layer. It keeps the benchmark's 1024 keys, because the
// p99 over keys of a read-back sweep needs a thousand of them. The code
// paths are the benchmark's own.
var tinyGeometry = geometry{
	segSize: 64, numSegs: 2048, clusters: 4, epochs: 1, hidden: 16,
	keys: 1024, valueLen: 32, poolSize: 200,
}

func mustTape(t *testing.T, name string, seed int64, ops int) (spec, *tape) {
	t.Helper()
	sp, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	tp, err := genTape(sp, tinyGeometry, seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	return sp, tp
}

func TestTapeIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range workloads {
		_, a := mustTape(t, sp.name, 7, 400)
		_, b := mustTape(t, sp.name, 7, 400)
		_, c := mustTape(t, sp.name, 8, 400)
		if a.hash != b.hash {
			t.Errorf("%s: same seed, hashes %s and %s", sp.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 share hash %s", sp.name, a.hash)
		}
		if len(a.clients) != sp.clients {
			t.Errorf("%s: %d client tapes, want %d", sp.name, len(a.clients), sp.clients)
		}
		for ci, ops := range a.clients {
			if (len(ops)-a.warm)%numSlices != 0 {
				t.Errorf("%s: client %d has %d timed ops, not a multiple of %d", sp.name, ci, len(ops)-a.warm, numSlices)
			}
			for _, o := range ops {
				if int(o.key)%sp.clients != ci {
					t.Fatalf("%s: client %d was given key %d", sp.name, ci, o.key)
				}
			}
		}
	}
}

// mapKV is a correct in-memory store with two faults to inject.
type mapKV struct {
	m map[uint64][]byte
	// wrongKey's reads return another key's bytes; failKey's Puts error.
	wrongKey, failKey uint64
	inject            bool
	// onCall, when set, runs inside every call: the fake clock's service time.
	onCall func()
}

func newMapKV() *mapKV { return &mapKV{m: map[uint64][]byte{}} }

func (s *mapKV) Put(key uint64, value []byte) error {
	if s.onCall != nil {
		s.onCall()
	}
	if s.inject && key == s.failKey {
		return errors.New("injected")
	}
	s.m[key] = append([]byte(nil), value...)
	return nil
}

func (s *mapKV) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	if s.onCall != nil {
		s.onCall()
	}
	v, ok := s.m[key]
	if s.inject && key == s.wrongKey && ok {
		v = append([]byte{^v[0]}, v[1:]...)
	}
	return append(dst[:0], v...), ok, nil
}

func (s *mapKV) Len() int { return len(s.m) }

// hotKeys returns a key the tape both writes and reads, and one it writes.
func hotKeys(tp *tape) (read, written uint64) {
	seen := map[uint32]bool{}
	for _, o := range tp.clients[0] {
		if o.kind == opPut {
			seen[o.key] = true
			written = uint64(o.key)
		}
	}
	for _, o := range tp.clients[0] {
		if o.kind == opGet && seen[o.key] {
			return uint64(o.key), written
		}
	}
	return written, written
}

func TestInjectedFaultsRaiseFailFrac(t *testing.T) {
	sp, tp := mustTape(t, "read-zipf-open", 3, 2000) // YCSB-B: reads and writes
	run := func(st *mapKV) (attempted, failed int) {
		ms := drive(st, sp, tp, tinyGeometry, func() {}, time.Minute, nil)
		_, att, bad := sweep(st, wallClock(), tp, ms.clients[0].shadow, 2)
		return ms.attempted + att, ms.failed + bad
	}
	if att, failed := run(newMapKV()); failed != 0 || att == 0 {
		t.Fatalf("correct store: %d of %d failed", failed, att)
	}
	read, written := hotKeys(tp)

	wrong := newMapKV()
	wrong.inject, wrong.wrongKey, wrong.failKey = true, read, ^uint64(0)
	if _, failed := run(wrong); failed == 0 {
		t.Error("a wrong value went uncounted")
	}
	erring := newMapKV()
	erring.inject, erring.wrongKey, erring.failKey = true, ^uint64(0), written
	if _, failed := run(erring); failed == 0 {
		t.Error("an error went uncounted")
	}
}

func TestSweepChecksLen(t *testing.T) {
	_, tp := mustTape(t, "put-1c", 3, 200)
	st := newMapKV()
	shadow := newShadow(tinyGeometry.keys)
	if failed := preload(st, tp, shadow); failed != 0 {
		t.Fatal("preload failed")
	}
	if _, _, bad := sweep(st, wallClock(), tp, shadow, 1); bad != 0 {
		t.Fatalf("clean sweep reported %d failures", bad)
	}
	st.m[1<<40] = []byte("stray") // a key nobody wrote
	if _, _, bad := sweep(st, wallClock(), tp, shadow, 1); bad != 1 {
		t.Errorf("stray key: %d failures, want 1 (Len)", bad)
	}
}

func TestOpenLoopChargesTheQueueBehindAStall(t *testing.T) {
	const (
		n        = 12
		interval = 1000 // ns between due times
		service  = 100  // ns per op
		stall    = 5000 // op 3 takes this long
	)
	_, tp := mustTape(t, "read-zipf-open", 1, 100)
	var nowNs int64
	now := func() int64 { nowNs += 10; return nowNs } // each clock read costs 10 ns
	c := newClient(tp.clients[0][:n], tp.values, newShadow(tinyGeometry.keys))
	st := newMapKV()
	calls := 0
	st.onCall = func() {
		if calls == 3 {
			nowNs += stall
		} else {
			nowNs += service
		}
		calls++
	}
	sc := schedule{interval: interval}
	c.openLoop(st, now, 0, n, &sc)

	// before the stall every op is issued on time and costs its service time
	for i := 0; i < 3; i++ {
		if c.late[i] > 30 || c.lat[i] > service+50 {
			t.Errorf("op %d: late %d ns, latency %d ns before any stall", i, c.late[i], c.lat[i])
		}
	}
	// op 3 stalls for 5 intervals: op 4 was due at 4000 and cannot start
	// before ~8000, so it is charged ~4000 ns of queueing it did not cause
	if c.lat[3] < stall {
		t.Errorf("stalled op charged %d ns, want ≥ %d", c.lat[3], stall)
	}
	if c.late[4] < 3900 || c.lat[4] < 3900+service {
		t.Errorf("op behind the stall: late %d ns, latency %d ns; want ≈ 4000 and ≈ 4100", c.late[4], c.lat[4])
	}
	if c.svc[4] > service+50 {
		t.Errorf("op 4's own call took %d ns; the queueing belongs in lat, not svc", c.svc[4])
	}
	// the backlog drains at (interval − service) per op and is gone by op 9
	for i := 5; i < 9; i++ {
		if c.late[i] >= c.late[i-1] {
			t.Errorf("backlog not draining: late[%d]=%d after late[%d]=%d", i, c.late[i], i-1, c.late[i-1])
		}
	}
	for i := 10; i < n; i++ {
		if c.late[i] > 30 {
			t.Errorf("op %d still %d ns late after the backlog drained", i, c.late[i])
		}
	}
	if sc.idle <= 0 {
		t.Error("generator reported no idle time on an underloaded schedule")
	}
	if sc.stalls != 0 {
		t.Errorf("%d generator stalls on a clock that never jumps while idling", sc.stalls)
	}
}

// A jump of the clock while the generator idles — the sandbox taking its
// thread off the CPU — moves the schedule instead of queueing ops.
func TestOpenLoopMovesTheScheduleOverAGeneratorStall(t *testing.T) {
	const (
		n        = 8
		interval = 100_000
		jump     = 700_000 // well past genStall
	)
	_, tp := mustTape(t, "read-zipf-open", 1, 100)
	var nowNs int64
	reads := 0
	now := func() int64 {
		reads++
		nowNs += 10
		if reads == 40 { // some way into an idle wait
			nowNs += jump
		}
		return nowNs
	}
	c := newClient(tp.clients[0][:n], tp.values, newShadow(tinyGeometry.keys))
	st := newMapKV()
	st.onCall = func() { nowNs += 100 }
	sc := schedule{interval: interval}
	c.openLoop(st, now, 0, n, &sc)
	if sc.stalls != 1 || sc.stalled < jump {
		t.Fatalf("stalls %d, stalled %d ns; want 1 stall of ≥ %d ns", sc.stalls, sc.stalled, jump)
	}
	for i := 0; i < n; i++ {
		if c.late[i] > 50 {
			t.Errorf("op %d issued %d ns late: the generator's stall was charged to the store", i, c.late[i])
		}
	}
}
