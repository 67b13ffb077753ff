package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"e2nvm/internal/core"
	"e2nvm/internal/kvstore"
	"e2nvm/internal/nvm"
)

func quickModelCfg(seed int64) core.Config {
	return core.Config{K: 3, HiddenDim: 32, LatentDim: 4, Epochs: 3, JointEpochs: 1, BatchSize: 16, Seed: seed}
}

// logSegs is the device tail reserved by the crash-safe store's redo log;
// [0, numSegs-logSegs) is the data zone replication must converge on.
const logSegs = kvstore.LogSlots * (1 + kvstore.LogMaxEntries)

// newSpec builds one replica set: a crash-safe leader plus rf-1 follower
// devices filled with the same initial content (so the data zones start,
// and therefore stay, byte-identical).
func newSpec(t *testing.T, segSize, numSegs, rf int, contentSeed int64) GroupSpec {
	t.Helper()
	mkdev := func() *nvm.Device {
		dev, err := nvm.NewDevice(nvm.DefaultConfig(segSize, numSegs))
		if err != nil {
			t.Fatal(err)
		}
		dev.Fill(rand.New(rand.NewSource(contentSeed)))
		return dev
	}
	opts := kvstore.Options{CrashSafe: true}
	leader, err := kvstore.Open(mkdev(), quickModelCfg(contentSeed), opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := GroupSpec{Leader: leader, Opts: opts}
	for f := 1; f < rf; f++ {
		spec.Followers = append(spec.Followers, mkdev())
	}
	return spec
}

// newCluster builds groups identical replica sets of rf nodes each.
func newCluster(t *testing.T, groups, rf, segSize, numSegs int) *Cluster {
	t.Helper()
	specs := make([]GroupSpec, groups)
	for g := range specs {
		specs[g] = newSpec(t, segSize, numSegs, rf, int64(100+g))
	}
	c, err := New(specs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fence fails every segment of dev, modeling a device whose cells no
// longer program anywhere (reads still serve stored content).
func fence(t *testing.T, dev *nvm.Device) {
	t.Helper()
	for a := 0; a < dev.NumSegments(); a++ {
		if err := dev.FailSegment(a); err != nil {
			t.Fatal(err)
		}
	}
}

func val(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("empty specs error = %v, want ErrNoGroups", err)
	}
	// Non-crash-safe leader has no txn manager to ship from.
	dev, err := nvm.NewDevice(nvm.DefaultConfig(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	dev.Fill(rand.New(rand.NewSource(1)))
	st, err := kvstore.Open(dev, quickModelCfg(1), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]GroupSpec{{Leader: st}}, Config{}); !errors.Is(err, ErrNotCrashSafe) {
		t.Fatalf("plain store error = %v, want ErrNotCrashSafe", err)
	}
	// Mismatched follower geometry.
	spec := newSpec(t, 32, 64, 1, 7)
	bad, err := nvm.NewDevice(nvm.DefaultConfig(32, 16))
	if err != nil {
		t.Fatal(err)
	}
	spec.Followers = []*nvm.Device{bad}
	if _, err := New([]GroupSpec{spec}, Config{}); !errors.Is(err, ErrGeometry) {
		t.Fatalf("geometry error = %v, want ErrGeometry", err)
	}
}

func TestFollowerConvergesByteIdentical(t *testing.T) {
	c := newCluster(t, 1, 2, 32, 64)
	for i := 0; i < 40; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // overwrites
		if err := c.Put(uint64(i), val(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 20; i < 25; i++ { // deletes
		if ok, err := c.Delete(uint64(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v,%v)", i, ok, err)
		}
	}
	c.Close() // joins the apply loop: every shipped entry is on the device
	g := c.groups[0]
	ldev, fdev := g.nodes[0].dev, g.nodes[1].dev
	for a := 0; a < ldev.NumSegments()-logSegs; a++ {
		lb, err := ldev.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fdev.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("data segment %d differs between leader and follower", a)
		}
	}
	st := c.Status()[0]
	if len(st.Replicas) != 2 || st.Replicas[1].Lag != 0 {
		t.Fatalf("status after close = %+v, want follower lag 0", st)
	}
	if st.Replicas[1].Shipped == 0 || st.Replicas[1].Shipped != st.Replicas[1].Applied {
		t.Fatalf("follower shipped/applied = %d/%d, want equal and nonzero",
			st.Replicas[1].Shipped, st.Replicas[1].Applied)
	}
}

func TestFailoverPromotesFollower(t *testing.T) {
	c := newCluster(t, 1, 2, 32, 64)
	defer c.Close()
	const n = 30
	for i := 0; i < n; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the leader's device: every cell refuses to program.
	fence(t, c.groups[0].nodes[0].dev)
	// The next write dies on the leader, fails over, and succeeds on the
	// promoted follower — the caller never sees the device death.
	if err := c.Put(uint64(n), val(n)); err != nil {
		t.Fatalf("Put across failover: %v", err)
	}
	st := c.Status()[0]
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if st.State != StateActive {
		t.Fatalf("group state = %s, want active", st.State)
	}
	if st.Replicas[0].Role != RoleDead || st.Replicas[1].Role != RoleLeader {
		t.Fatalf("roles after failover = %s/%s, want dead/leader", st.Replicas[0].Role, st.Replicas[1].Role)
	}
	// Every acknowledged write survives on the new leader.
	for i := 0; i <= n; i++ {
		v, ok, err := c.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after failover = (%q,%v,%v), want %q", i, v, ok, err, val(i))
		}
	}
	// The promoted leader keeps serving writes, deletes, scans.
	if err := c.Put(3, val(9999)); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(3); !ok || !bytes.Equal(v, val(9999)) {
		t.Fatalf("overwrite on promoted leader = (%q,%v)", v, ok)
	}
	if ok, err := c.Delete(4); err != nil || !ok {
		t.Fatalf("Delete on promoted leader = (%v,%v)", ok, err)
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
}

func TestMigrationDrainsDeadGroup(t *testing.T) {
	const groups, keys = 3, 96
	c := newCluster(t, groups, 1, 32, 64) // RF=1: no followers, death ⇒ migration
	defer c.Close()
	want := map[uint64][]byte{}
	for i := 0; i < keys; i++ {
		k := uint64(i)
		if err := c.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		want[k] = val(i)
	}
	// Kill group 0's only replica.
	victim := 0
	fence(t, c.groups[victim].nodes[0].dev)
	// A write homed to the dead group triggers the drain and lands in a
	// surviving group without the caller noticing.
	var probe uint64
	for k := uint64(0); ; k++ {
		if c.Of(k) == victim {
			probe = k
			break
		}
	}
	if err := c.Put(probe, val(7777)); err != nil {
		t.Fatalf("Put onto dying group: %v", err)
	}
	want[probe] = val(7777)
	c.Quiesce() // drain completes
	st := c.Status()[victim]
	if st.State != StateDrained {
		t.Fatalf("victim state = %s, want drained", st.State)
	}
	if st.Migrated == 0 {
		t.Fatalf("migrated = 0, want > 0")
	}
	if c.Serving(victim) != nil {
		t.Fatal("a drained group must report no serving store")
	}
	// The whole keyspace — including every key homed to the drained group
	// — is served by the survivors.
	for k, wv := range want {
		v, ok, err := c.Get(k)
		if err != nil || !ok || !bytes.Equal(v, wv) {
			t.Fatalf("Get(%d) after migration = (%q,%v,%v), want %q", k, v, ok, err, wv)
		}
	}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	// Redirected writes and deletes keep working after the drain.
	if err := c.Put(probe, val(8888)); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(probe); !ok || !bytes.Equal(v, val(8888)) {
		t.Fatalf("redirected overwrite = (%q,%v)", v, ok)
	}
	if ok, err := c.Delete(probe); err != nil || !ok {
		t.Fatalf("redirected delete = (%v,%v)", ok, err)
	}
	if _, ok, _ := c.Get(probe); ok {
		t.Fatal("deleted key resurfaced after migration")
	}
	// Scan sees exactly the surviving keys, in order, once each.
	delete(want, probe)
	seen := map[uint64]int{}
	last := int64(-1)
	if err := c.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
		if int64(k) <= last {
			t.Fatalf("scan out of order: %d after %d", k, last)
		}
		last = int64(k)
		seen[k]++
		if wv := want[k]; !bytes.Equal(v, wv) {
			t.Fatalf("scan value for %d = %q, want %q", k, v, wv)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %d keys, want %d", len(seen), len(want))
	}
	// A scrub budget is split over the two groups still serving only: none
	// of it is handed to the drained group and lost.
	rep, err := c.Scrub(3)
	if err != nil || rep.Scanned != 3 {
		t.Fatalf("Scrub(3) with one group drained = (%+v,%v), want 3 segments scanned", rep, err)
	}
}

// TestScanDuringDrain parks a group in the draining state — its migrator
// stopped part-way by an injected crash in the target's redo log, the way
// TestCrashMatrixMigrationCopy stops one — with one client overwrite and
// one client delete of keys the migrator had not reached. Keys the
// migrator did copy then exist in both the source and the target: the
// router's Scan must emit every live key exactly once, ascending, with the
// value Get returns, and Len must agree once the drain has finished.
func TestScanDuringDrain(t *testing.T) {
	const keys = 40
	c := newCluster(t, 2, 1, 32, 96)
	defer c.Close()
	want := map[uint64][]byte{}
	var victimKeys []uint64
	const victim, target = 0, 1
	for i := 0; i < keys; i++ {
		k := uint64(i)
		if err := c.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		want[k] = val(i)
		if c.Of(k) == victim {
			victimKeys = append(victimKeys, k)
		}
	}
	// Each migrated record costs the target's log five device writes, so the
	// migrator dies inside its third copy.
	tmgr := c.groups[target].nodes[0].store.TxnManager()
	tmgr.FailAfter(12)
	vg := c.groups[victim]
	fence(t, vg.nodes[0].dev)
	if err := vg.failoverFrom(vg.nodes[0].store); err != nil {
		t.Fatal(err)
	}
	c.Quiesce() // the migrator has stopped
	tmgr.FailAfter(-1)
	if st := c.Status()[victim]; st.State != StateDraining || st.Migrated == 0 || int(st.Migrated) >= len(victimKeys)-2 {
		t.Fatalf("victim = %+v, want parked in draining with some of its %d records migrated", st, len(victimKeys))
	}
	// The migrator walks ascending, so the victim's two largest keys are
	// still source-only.
	over, del := victimKeys[len(victimKeys)-1], victimKeys[len(victimKeys)-2]
	if err := c.Put(over, val(5000)); err != nil {
		t.Fatalf("overwrite during drain: %v", err)
	}
	want[over] = val(5000)
	if ok, err := c.Delete(del); err != nil || !ok {
		t.Fatalf("delete during drain = (%v,%v)", ok, err)
	}
	delete(want, del)
	// The window inside a drain-time overwrite — new value in the target,
	// source copy not tombstoned yet — held open by writing the target's
	// store directly: both groups now present the key with different
	// values, and Scan must emit the one the read path serves.
	both := victimKeys[0] // the migrator's first copy
	if err := c.groups[target].nodes[0].store.Put(both, val(6000)); err != nil {
		t.Fatal(err)
	}
	want[both] = val(6000)

	checkScan := func(when string) {
		t.Helper()
		seen, last := 0, int64(-1)
		if err := c.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			if int64(k) <= last {
				t.Fatalf("%s: scan emitted %d after %d", when, k, last)
			}
			last = int64(k)
			seen++
			gv, ok, err := c.Get(k)
			if err != nil || !ok || !bytes.Equal(v, gv) || !bytes.Equal(v, want[k]) {
				t.Fatalf("%s: scan value for %d = %q, Get = (%q,%v,%v), want %q", when, k, v, gv, ok, err, want[k])
			}
			return true
		}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if seen != len(want) {
			t.Fatalf("%s: scan emitted %d keys, want %d", when, seen, len(want))
		}
	}
	checkScan("draining")

	if err := c.CheckHealth(); err != nil { // relaunches the stalled migrator
		t.Fatal(err)
	}
	c.Quiesce()
	if st := c.Status()[victim]; st.State != StateDrained {
		t.Fatalf("victim state after relaunch = %s, want drained", st.State)
	}
	checkScan("drained")
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
}

func TestDeleteDuringDrainDoesNotResurrect(t *testing.T) {
	const groups, keys = 2, 48
	c := newCluster(t, groups, 1, 32, 64)
	defer c.Close()
	for i := 0; i < keys; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := 0
	fence(t, c.groups[victim].nodes[0].dev)
	// Force the drain via a probe write, then immediately delete every key
	// homed to the victim while the migrator races the deletes.
	var victimKeys []uint64
	for i := 0; i < keys; i++ {
		if c.Of(uint64(i)) == victim {
			victimKeys = append(victimKeys, uint64(i))
		}
	}
	if err := c.Put(victimKeys[0], val(1)); err != nil {
		t.Fatal(err)
	}
	for _, k := range victimKeys {
		if _, err := c.Delete(k); err != nil {
			t.Fatalf("Delete(%d) during drain: %v", k, err)
		}
	}
	c.Quiesce()
	for _, k := range victimKeys {
		if _, ok, _ := c.Get(k); ok {
			t.Fatalf("key %d deleted during drain resurrected after migration", k)
		}
	}
	// Keys homed to the survivor are untouched.
	for i := 0; i < keys; i++ {
		k := uint64(i)
		if c.Of(k) == victim {
			continue
		}
		v, ok, err := c.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("survivor key %d = (%q,%v,%v)", k, v, ok, err)
		}
	}
}

func TestOverwriteDuringDrainWins(t *testing.T) {
	const groups, keys = 2, 48
	c := newCluster(t, groups, 1, 32, 64)
	defer c.Close()
	for i := 0; i < keys; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := 0
	fence(t, c.groups[victim].nodes[0].dev)
	var victimKeys []uint64
	for i := 0; i < keys; i++ {
		if c.Of(uint64(i)) == victim {
			victimKeys = append(victimKeys, uint64(i))
		}
	}
	// Overwrite every victim key while the migrator copies stale records.
	for _, k := range victimKeys {
		if err := c.Put(k, val(int(k)+5000)); err != nil {
			t.Fatalf("Put(%d) during drain: %v", k, err)
		}
	}
	c.Quiesce()
	for _, k := range victimKeys {
		v, ok, err := c.Get(k)
		if err != nil || !ok || !bytes.Equal(v, val(int(k)+5000)) {
			t.Fatalf("Get(%d) = (%q,%v,%v), want the drain-time overwrite", k, v, ok, err)
		}
	}
}

func TestGroupDownWhenNoTargets(t *testing.T) {
	c := newCluster(t, 1, 1, 32, 64) // one group, no followers, nowhere to go
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fence(t, c.groups[0].nodes[0].dev)
	if err := c.Put(99, val(99)); !errors.Is(err, ErrGroupDown) {
		t.Fatalf("Put on down group error = %v, want ErrGroupDown", err)
	}
	// Reads still serve the surviving content of the dead device.
	for i := 0; i < 10; i++ {
		v, ok, err := c.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) on down group = (%q,%v,%v)", i, v, ok, err)
		}
	}
	if c.Status()[0].State != StateDown {
		t.Fatalf("state = %s, want down", c.Status()[0].State)
	}
}

func TestCheckHealthFailsOverDegradedLeader(t *testing.T) {
	// A low degrade threshold and a partially fenced zone: the leader
	// degrades without an operation ever failing hard, and CheckHealth
	// notices before clients do.
	specs := []GroupSpec{newSpec(t, 32, 64, 2, 50)}
	specs[0].Opts.DegradeThreshold = 0.05
	st := specs[0].Leader
	c, err := New(specs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if err := c.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fence a slice of the data zone and scrub it so retirement crosses
	// the degradation threshold.
	for a := 0; a < 8; a++ {
		if err := st.Device().FailSegment(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Scrub(60); err != nil {
		t.Fatal(err)
	}
	if !st.Health().Degraded {
		t.Skip("zone did not degrade under this geometry")
	}
	if err := c.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := c.Status()[0].Failovers; got != 1 {
		t.Fatalf("Failovers after CheckHealth = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		v, ok, err := c.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after proactive failover = (%q,%v,%v)", i, v, ok, err)
		}
	}
}

func TestScrubRotatesAcrossGroups(t *testing.T) {
	c := newCluster(t, 4, 1, 32, 16)
	defer c.Close()
	for g := 0; g < 4; g++ {
		if err := c.groups[g].nodes[0].dev.FailSegment(0); err != nil {
			t.Fatal(err)
		}
	}
	for call := 0; call < 4; call++ {
		rep, err := c.Scrub(1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != 1 {
			t.Fatalf("call %d scanned %d, want 1", call, rep.Scanned)
		}
	}
	for g := 0; g < 4; g++ {
		if got := c.groups[g].nodes[0].store.Health().Retired; got != 1 {
			t.Fatalf("group %d retired %d, want 1 (remainder not rotated)", g, got)
		}
	}
}
