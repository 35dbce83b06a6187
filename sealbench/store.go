package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/server"
	"sealdb/internal/smr"
)

// clients is the number of closed-loop client goroutines, each on its
// own pooled connection: every caller blocks on its reply before it
// sends the next request.
const clients = 2

// store is one loaded SEALDB store served over loopback TCP, with the
// clients that drive it.
type store struct {
	w     workload
	db    *lsm.DB
	srv   *server.Server
	drive *timedDrive
	// plain drives untraced slices. traced, dialed only in a traced
	// run, negotiates wire.FeatureTrace, so its request ids reach the
	// engine tracer.
	plain, traced *sealclient.Client
	// nextInsert hands out fresh record indexes for inserts.
	nextInsert atomic.Int64
}

// openStore builds a fresh store: open, load, optionally compact,
// serve, dial and warm up. The returned duration covers all of it.
func openStore(w workload, seed int64, withTrace bool, spans *spanLog) (*store, time.Duration, error) {
	t0 := time.Now()
	s := &store{w: w, drive: &timedDrive{spans: spans}}
	cfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	cfg.Seed = seed
	cfg.ValueThreshold = w.valueThreshold
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		s.drive.Drive = inner
		return s.drive
	}
	db, err := lsm.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	s.db = db
	if err := s.load(seed); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	if w.compact {
		if err := db.CompactAll(); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("compact: %w", err)
		}
	}
	s.nextInsert.Store(w.records)
	if s.srv, err = server.Serve(db, "127.0.0.1:0", server.Config{}); err != nil {
		s.close()
		return nil, 0, err
	}
	addr := s.srv.Addr().String()
	if s.plain, err = sealclient.Dial(addr, sealclient.Options{Conns: clients}); err != nil {
		s.close()
		return nil, 0, err
	}
	if withTrace {
		if s.traced, err = sealclient.Dial(addr, sealclient.Options{Conns: clients, Trace: true}); err != nil {
			s.close()
			return nil, 0, err
		}
		// The server turns the engine tracer on when a client
		// negotiates tracing; slices switch it per slice from here.
		db.SetTracing(false)
	}
	if err := s.warmup(); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, time.Since(t0), nil
}

// load inserts every record once, in an order drawn from the seed (a
// YCSB load inserts hashed keys), in-process: the load is set-up, not
// the measured path.
func (s *store) load(seed int64) error {
	key := make([]byte, 0, keyLen)
	val := make([]byte, valueSize)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(int(s.w.records)) {
		key = appendKey(key[:0], int64(i))
		fillValue(val, key, 0)
		if err := s.db.Put(key, val); err != nil {
			return err
		}
	}
	return nil
}

// warmup reads every key once in-process when the workload is meant
// to run from the block cache, so the cache is full before timing.
// It runs in-process because the pass only has to touch the blocks;
// the client path warms up in the first measured slices, which the
// per-slice medians absorb.
func (s *store) warmup() error {
	if !s.w.compact {
		return nil
	}
	key := make([]byte, 0, keyLen)
	for i := int64(0); i < s.w.records; i++ {
		key = appendKey(key[:0], i)
		v, err := s.db.Get(key)
		if err != nil {
			return err
		}
		if err := checkValue(key, v); err != nil {
			return err
		}
	}
	return nil
}

// close shuts the store down in dependency order.
func (s *store) close() {
	for _, c := range []*sealclient.Client{s.plain, s.traced} {
		if c != nil {
			c.Close()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
}

// setupCost is what building one store took: wall time and the
// process's user+sys CPU time.
type setupCost struct {
	wall, cpu time.Duration
}

// setupStores builds the store n times from scratch and keeps the
// last one; the earlier ones only time set-up. Memory is returned to
// the OS between builds so they do not stack up in the peak RSS.
func setupStores(w workload, seed int64, n int, withTrace bool, spans *spanLog) (*store, []setupCost, error) {
	var costs []setupCost
	for i := 0; ; i++ {
		cpu0 := readHost().cpuNS
		s, d, err := openStore(w, seed, withTrace, spans)
		if err != nil {
			return nil, nil, err
		}
		costs = append(costs, setupCost{wall: d, cpu: time.Duration(readHost().cpuNS - cpu0)})
		if i == n-1 {
			return s, costs, nil
		}
		s.close()
		runtime.GC()
		debug.FreeOSMemory()
	}
}
