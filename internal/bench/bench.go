// Package bench contains the experiment harness that regenerates
// every table and figure of the paper's evaluation (§IV). Each
// experiment returns structured rows (so tests can assert on shapes)
// and can print itself as a table or CSV.
//
// All durations are simulated device time from the platter's service
// model, so results are deterministic across runs and machines.
package bench

import (
	"fmt"
	"io"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/ycsb"
)

// Options sizes the experiments. The defaults (see DefaultOptions)
// follow the paper's setup at the repository's 1/16 geometry scale.
type Options struct {
	// Geometry of the stores under test.
	Geometry lsm.Geometry
	// LoadMB is the logical payload of the load phases.
	LoadMB int64
	// ValueSize is the value payload size (the paper uses 4 KiB with
	// 16-byte keys; the scaled default is 1 KiB).
	ValueSize int
	// ValueSizes is the value-size axis for the YCSB report: each size
	// runs the full workload matrix on every store. Empty means just
	// ValueSize.
	ValueSizes []int
	// VlogThreshold is the key–value separation threshold of the
	// "sealdb+vlog" store in the YCSB report (values at or above it
	// move to the value log). Zero means 64, which separates every
	// size on the standard 64 B → 1 MiB axis.
	VlogThreshold int
	// ReadOps is the number of point/sequential reads per experiment
	// (the paper uses 100 K).
	ReadOps int
	// YCSBOps is the number of operations per YCSB workload.
	YCSBOps int
	// Seed drives every generator.
	Seed int64
	// Observe, when set, is called with every store the harness opens,
	// before the experiment runs on it. The -serve flag uses it to point
	// the live /metrics endpoint at whichever store is currently under
	// test.
	Observe func(*lsm.DB)
}

// DefaultOptions returns the canonical experiment scale: the 1/16
// geometry (256 KiB SSTables, 2.5 MiB bands) with a 192 MiB load that
// spans ~75 bands and ~770 SSTables. At this scale every shape of the
// paper's evaluation appears — including SMRDB's few-but-huge
// seek-bound compactions, which vanish at smaller scales (see
// DESIGN.md). A full figure takes tens of seconds of wall time.
func DefaultOptions() Options {
	return Options{
		Geometry:  lsm.ScaledGeometry(256*kv.KiB, 8*kv.GiB),
		LoadMB:    192,
		ValueSize: 1024,
		ReadOps:   10000,
		YCSBOps:   10000,
		Seed:      1,
	}
}

// QuickOptions returns a much smaller scale for smoke tests: the
// robust shapes (AWA elimination, layout contiguity, the ablation)
// hold here, but SMRDB's compaction penalty needs DefaultOptions.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Geometry = lsm.ScaledGeometry(32*kv.KiB, 1*kv.GiB)
	o.LoadMB = 10
	o.ReadOps = 800
	o.YCSBOps = 800
	return o
}

// Records returns the number of KV records that fit LoadMB.
func (o Options) Records() int64 {
	return o.RecordsFor(o.ValueSize)
}

// RecordsFor returns the number of records of the given value size
// that fit LoadMB, clamped so huge values still leave a workable
// keyspace.
func (o Options) RecordsFor(valueSize int) int64 {
	rec := int64(valueSize + 16)
	n := o.LoadMB * kv.MiB / rec
	if n < 16 {
		n = 16
	}
	return n
}

// OpsFor bounds a YCSB phase's op count for the given value size:
// above 4 KiB the count shrinks in proportion so a phase writes about
// as many bytes as it would at 4 KiB. Without the cap, the 1 MiB cell
// of the value-size axis pushes ~10 GiB of logical writes per store
// through an 8 GiB simulated disk. The cap depends only on the value
// size, so every store in a cell still runs identical work.
func (o Options) OpsFor(valueSize int) int {
	ops := o.YCSBOps
	if valueSize > 4*1024 {
		ops = o.YCSBOps * 4 * 1024 / valueSize
		if ops < 64 {
			ops = 64
		}
	}
	return ops
}

func (o Options) config(mode lsm.Mode) lsm.Config {
	cfg := lsm.Config{Mode: mode, Geometry: o.Geometry, Seed: o.Seed}
	return cfg
}

// openStore builds a fresh store of the given mode.
func (o Options) openStore(mode lsm.Mode) (*lsm.DB, error) {
	db, err := lsm.Open(o.config(mode))
	if err == nil && o.Observe != nil {
		o.Observe(db)
	}
	return db, err
}

// storeAdapter adapts *lsm.DB to ycsb.Store.
type storeAdapter struct{ db *lsm.DB }

func (s storeAdapter) Put(k, v []byte) error        { return s.db.Put(k, v) }
func (s storeAdapter) Get(k []byte) ([]byte, error) { return s.db.Get(k) }
func (s storeAdapter) ScanN(start []byte, n int) (int, error) {
	kvs, err := s.db.Scan(start, n)
	return len(kvs), err
}

// loadStore opens a fresh store of the given mode and loads it in
// random order. It also returns the merge compactions the load ran
// (flushes and trivial moves skipped), in order: the per-compaction
// trace behind Figures 2, 3(a), 10, 11 and 13.
func (o Options) loadStore(mode lsm.Mode) (*lsm.DB, []lsm.CompactionInfo, error) {
	db, err := o.openStore(mode)
	if err != nil {
		return nil, nil, err
	}
	var merges []lsm.CompactionInfo
	db.SetCompactionObserver(func(ci lsm.CompactionInfo) {
		if !ci.Flush && !ci.TrivialMove {
			merges = append(merges, ci)
		}
	})
	if err := ycsb.NewRunner(storeAdapter{db}, o.ValueSize, o.Seed).LoadRandom(o.Records()); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, merges, nil
}

// simTime returns the accumulated simulated device time of a store.
func simTime(db *lsm.DB) time.Duration {
	return db.Device().Disk.Stats().BusyTime
}

// phase measures the simulated time consumed by fn on db.
func phase(db *lsm.DB, fn func() error) (time.Duration, error) {
	start := simTime(db)
	err := fn()
	return simTime(db) - start, err
}

// throughput converts an op count and simulated duration to ops/s.
func throughput(ops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// seqRead iterates n entries from the smallest key.
func seqRead(db *lsm.DB, n int) (int, error) {
	it := db.NewIterator()
	defer it.Close()
	count := 0
	for it.SeekToFirst(); it.Valid() && count < n; it.Next() {
		count++
	}
	return count, it.Error()
}

// randRead performs n uniform point reads over [0, records).
func randRead(db *lsm.DB, records int64, n int, seed int64) (misses int, err error) {
	rng := newRng(seed)
	for i := 0; i < n; i++ {
		if _, err := db.Get(ycsb.Key(rng.Int63n(records))); err != nil {
			if err == lsm.ErrNotFound {
				misses++
				continue
			}
			return misses, err
		}
	}
	return misses, nil
}

// fprintf writes formatted output, ignoring errors (report sinks).
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
