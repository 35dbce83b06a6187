package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/ycsb"
)

// LatencyRow is one store's per-operation simulated latency profile
// under a workload — the tail-latency view the paper's bimodal-SMR
// discussion (§II-C) motivates: LevelDB's reads and writes stall
// behind band cleaning, SEALDB's do not.
type LatencyRow struct {
	Store  string
	Reads  *Histogram
	Writes *Histogram
}

// RunLatencyProfile loads each store and runs a 50/50 read/update mix
// (YCSB-A) measuring each operation's simulated device time.
func RunLatencyProfile(o Options) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, mode := range []lsm.Mode{lsm.ModeLevelDB, lsm.ModeSMRDB, lsm.ModeSEALDB} {
		db, _, err := o.loadStore(mode)
		if err != nil {
			return nil, err
		}

		row := LatencyRow{Store: mode.String(), Reads: &Histogram{}, Writes: &Histogram{}}
		rng := newRng(o.Seed + 3)
		gen := ycsb.NewScrambledZipfian(o.Records())
		val := make([]byte, o.ValueSize)
		clock := func() time.Duration { return db.Device().Disk.Stats().BusyTime }
		for i := 0; i < o.YCSBOps; i++ {
			key := ycsb.Key(gen.Next(rng))
			start := clock()
			if i%2 == 0 {
				if _, err := db.Get(key); err != nil && err != lsm.ErrNotFound {
					return nil, err
				}
				row.Reads.Add(clock() - start)
			} else {
				rng.Read(val)
				if err := db.Put(key, val); err != nil {
					return nil, err
				}
				row.Writes.Add(clock() - start)
			}
		}
		rows = append(rows, row)
		db.Close()
	}
	return rows, nil
}

// PrintLatencyRows renders the latency profiles.
func PrintLatencyRows(w io.Writer, rows []LatencyRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Latency (simulated): store\treads\twrites\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Store, r.Reads.Summary(), r.Writes.Summary())
	}
	tw.Flush()
}

// GCAblationResult compares fragment state and cost before/after a
// DefragmentBands pass — the evaluation of the paper's future-work GC.
type GCAblationResult struct {
	lsm.GCResult
	// GCTime is the simulated device time the pass consumed.
	GCTime time.Duration
	// FragPctBefore/After are fragments as a share of occupied space
	// (the Fig 13 metric).
	FragPctBefore float64
	FragPctAfter  float64
}

// RunGCAblation loads SEALDB, measures fragments (Fig 13 style), runs
// the defragmentation pass, and measures again.
func RunGCAblation(o Options) (*GCAblationResult, error) {
	db, _, err := o.loadStore(lsm.ModeSEALDB)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	mgr := db.Device().DBand
	occBefore := float64(mgr.Frontier())

	start := simTime(db)
	gc, err := db.DefragmentBands(0)
	if err != nil {
		return nil, err
	}
	res := &GCAblationResult{GCResult: gc, GCTime: simTime(db) - start}
	if occBefore > 0 {
		res.FragPctBefore = float64(gc.FragmentsBefore) / occBefore
	}
	if occ := float64(mgr.Frontier()); occ > 0 {
		res.FragPctAfter = float64(gc.FragmentsAfter) / occ
	}
	if err := db.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("integrity after GC: %w", err)
	}
	return res, nil
}

// PrintGCAblation renders the GC ablation.
func PrintGCAblation(w io.Writer, r *GCAblationResult) {
	fprintf(w, "GC ablation: moved %d sets (%.2f MiB) in %v simulated; fragments %.2f%% -> %.2f%% of occupied\n",
		r.SetsMoved, float64(r.BytesMoved)/(1<<20), r.GCTime.Round(time.Millisecond),
		100*r.FragPctBefore, 100*r.FragPctAfter)
}
