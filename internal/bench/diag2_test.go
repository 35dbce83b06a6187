package bench

import (
	"testing"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/ycsb"
)

func TestDiagAblation(t *testing.T) {
	o := QuickOptions()
	for _, mode := range []lsm.Mode{lsm.ModeLevelDB, lsm.ModeLevelDBSets, lsm.ModeSEALDB} {
		db, err := o.openStore(mode)
		if err != nil {
			t.Fatal(err)
		}
		var compTime time.Duration
		db.SetCompactionObserver(func(ci lsm.CompactionInfo) { compTime += ci.Latency })
		runner := ycsb.NewRunner(storeAdapter{db}, o.ValueSize, o.Seed)
		start := simTime(db)
		if err := runner.LoadRandom(o.Records()); err != nil {
			t.Fatal(err)
		}
		d := simTime(db) - start
		amp := db.Amplification()
		st := db.Stats()
		ds := db.Device().Disk.Stats()
		t.Logf("%-14s load %7.0f ops/s  WA %.2f AWA %.3f MWA %.2f  compactions %d (%.1fs) seeks %d",
			mode, float64(o.Records())/d.Seconds(), amp.WA, amp.AWA, amp.MWA,
			st.CompactionCount, compTime.Seconds(), ds.Seeks)
		db.Close()
	}
}
