package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
)

// Runtime metrics the benchmark reads around each slice.
const (
	rmAllocs    = "/gc/heap/allocs:objects"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmSchedLats = "/sched/latencies:seconds"
)

// hostSample is the process-level state read at a slice boundary.
type hostSample struct {
	cpuNS     int64 // user+sys CPU of the whole process
	maxRSSKB  int64 // peak resident set so far (Linux reports KiB)
	allocs    uint64
	gcCycles  uint64
	gcCPU     float64
	totalCPU  float64
	schedLats *metrics.Float64Histogram
}

func readHost() hostSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLats}}
	metrics.Read(s)
	h := hostSample{cpuNS: ru.Utime.Nano() + ru.Stime.Nano(), maxRSSKB: ru.Maxrss}
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		h.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		h.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h.schedLats = s[4].Value.Float64Histogram()
	}
	return h
}

// engineSample is the store's state read at a slice boundary, in
// process and never over the wire: the STATS request would copy the
// compaction history under the DB lock in the middle of the run.
type engineSample struct {
	m     *obs.Snapshot
	disk  platter.Stats
	drive driveTotals
	dbMu  obs.LockSiteSnapshot
}

func readEngine(s *store) engineSample {
	e := engineSample{
		m:     s.db.MetricsSnapshot(),
		disk:  s.db.Device().Disk.Stats(),
		drive: s.drive.totals(),
	}
	for _, site := range obs.ContentionProfile() {
		if site.Name == "lsm_db_mu" {
			e.dbMu = site
		}
	}
	return e
}

// sliceResult is one measured slice: clients ran closed-loop for a
// fixed wall time, then stopped, so every counter delta between the
// boundary samples belongs to the slice.
type sliceResult struct {
	traced     bool
	wall       time.Duration
	clients    [clients]clientResult
	hostBefore hostSample
	hostAfter  hostSample
	before     engineSample
	after      engineSample
	// l0Max is the largest level-0 file count seen while sampling
	// (traced slices only).
	l0Max int
}

// ops is the number of operations attempted in the slice.
func (r *sliceResult) ops() int64 {
	var n int64
	for i := range r.clients {
		n += r.clients[i].attempted
	}
	return n
}

// samples returns the slice's call latencies of the given kinds.
func (r *sliceResult) samples(kinds ...opKind) []int64 {
	var out []int64
	for i := range r.clients {
		for _, k := range kinds {
			out = r.clients[i].samples[k].appendTo(out)
		}
	}
	return out
}

// runSlice measures one slice of dur. A traced slice switches on the
// client's request tracing, the engine tracer, lock profiling and the
// drive wrapper's timing, and samples the level-0 file count.
func runSlice(s *store, gens []*opGen, dur time.Duration, traced bool, spans *spanLog) *sliceResult {
	r := &sliceResult{traced: traced}
	cl := s.plain
	if traced {
		cl = s.traced
		s.db.SetTracing(true)
		obs.SetLockProfiling(true)
		s.drive.armed.Store(true)
	} else {
		spans = nil
	}
	r.before = readEngine(s)
	closeSpan := spans.open("slice")

	stopSampler := func() {}
	if traced {
		stopSampler = sampleL0(s.db, &r.l0Max)
	}
	r.hostBefore = readHost()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(cl, gens[i], s.w.records, deadline, spans, &r.clients[i])
		}(i)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.hostAfter = readHost()
	stopSampler()

	closeSpan()
	r.after = readEngine(s)
	if traced {
		s.db.SetTracing(false)
		obs.SetLockProfiling(false)
		s.drive.armed.Store(false)
	}
	return r
}

// sampleL0 polls the level-0 file count until the returned function
// is called, keeping the maximum in *max.
func sampleL0(db *lsm.DB, max *int) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if lv := db.LevelProfile(); len(lv) > 0 && lv[0].Files > *max {
				*max = lv[0].Files
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// written counts the values the slices wrote.
func written(w window) int64 {
	var n int64
	for _, r := range w {
		for i := range r.clients {
			n += r.clients[i].samples[opWrite].n
		}
	}
	return n
}

// checkpoint returns the index of the first slice by whose end the
// window had written at least n values, or of the last slice.
func checkpoint(all window, n int64) int {
	var sum int64
	for i, r := range all {
		if sum += written(window{r}); sum >= n {
			return i
		}
	}
	return len(all) - 1
}
