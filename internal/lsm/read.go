package lsm

import (
	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/version"
)

// Get returns the value of key at the latest sequence number.
func (d *DB) Get(key []byte) ([]byte, error) {
	return d.GetCtx(key, OpContext{})
}

// GetCtx is Get carrying a request context: when tracing is enabled,
// the lookup's physical I/Os and per-level stage times are attributed
// to ctx.ReqID. With tracing off it is exactly Get.
func (d *DB) GetCtx(key []byte, ctx OpContext) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ot := d.traceBegin("get", ctx.ReqID)
	v, err := d.getObserved(key, d.seq, ot)
	d.traceEnd(ot, err)
	return v, err
}

// GetAt returns the value of key as of the given snapshot.
func (d *DB) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ot := d.traceBegin("get", 0)
	v, err := d.getObserved(key, snap.seq, ot)
	d.traceEnd(ot, err)
	return v, err
}

// getObserved wraps getLocked with the read-path metrics: a count, a
// hit count, and the simulated device time the lookup consumed.
// Caller holds d.mu; ot may be nil (tracing off).
func (d *DB) getObserved(key []byte, seq kv.SeqNum, ot *opTrace) ([]byte, error) {
	startBusy := d.disk.Stats().BusyTime
	v, err := d.getLocked(key, seq, ot)
	d.metrics.gets.Inc()
	if err == nil {
		d.metrics.getHits.Inc()
	}
	d.metrics.readLatency.Observe(int64(d.disk.Stats().BusyTime - startBusy))
	return v, err
}

// getLocked is the LevelDB read path: memtable, then level 0 newest
// to oldest, then each deeper level. Caller holds d.mu; ot may be nil.
func (d *DB) getLocked(key []byte, seq kv.SeqNum, ot *opTrace) ([]byte, error) {
	si := ot.stageStart(stageReadMemtable, d.traceNow(ot))
	if v, deleted, ok := d.mem.Get(key, seq); ok {
		ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadMemNS)
		if deleted {
			return nil, ErrNotFound
		}
		return d.resolveValue(key, v)
	}
	ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadMemNS)
	v := d.vs.Current()

	// Level 0: files may overlap; newest (highest number) wins.
	// Flush order guarantees file-number order is data recency order.
	files := v.Files[0]
	if len(files) > 0 {
		si = ot.stageStart(d.tracer.readStages[0], d.traceNow(ot))
	}
	for i := len(files) - 1; i >= 0; i-- {
		f := files[i]
		if !fileMayContain(f, key) {
			continue
		}
		val, _, kind, ok, err := d.tableGet(f, key, seq)
		if err != nil {
			return nil, err
		}
		if ok {
			ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadLevel[0])
			if kind == kv.KindDelete {
				return nil, ErrNotFound
			}
			if d.cfg.vlogEnabled() {
				return d.resolveValue(key, val)
			}
			return val, nil
		}
	}
	if len(files) > 0 {
		ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadLevel[0])
	}

	for level := 1; level < d.cfg.NumLevels; level++ {
		candidates := v.Overlaps(level, key, key, d.cfg.sortedLevel(level))
		if len(candidates) == 0 {
			continue
		}
		si = ot.stageStart(d.tracer.readStages[level], d.traceNow(ot))
		if d.cfg.sortedLevel(level) {
			// At most one file can contain the key.
			val, _, kind, ok, err := d.tableGet(candidates[0], key, seq)
			if err != nil {
				return nil, err
			}
			ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadLevel[level])
			if ok {
				if kind == kv.KindDelete {
					return nil, ErrNotFound
				}
				if d.cfg.vlogEnabled() {
					return d.resolveValue(key, val)
				}
				return val, nil
			}
			continue
		}
		// Overlapped level (SMRDB): several files may hold versions
		// of the key; the highest visible sequence number wins.
		var (
			best     []byte
			bestSeq  kv.SeqNum
			bestKind kv.Kind
			found    bool
		)
		for _, f := range candidates {
			val, fseq, kind, ok, err := d.tableGet(f, key, seq)
			if err != nil {
				return nil, err
			}
			if ok && (!found || fseq > bestSeq) {
				best, bestSeq, bestKind, found = val, fseq, kind, true
			}
		}
		ot.stageEnd(si, d.traceNow(ot), d.metrics.stageReadLevel[level])
		if found {
			if bestKind == kv.KindDelete {
				return nil, ErrNotFound
			}
			if d.cfg.vlogEnabled() {
				return d.resolveValue(key, best)
			}
			return best, nil
		}
	}
	return nil, ErrNotFound
}

// traceNow returns the device clock for stage bookkeeping, or 0 when
// the op is untraced — avoiding the disk-stats lock on the hot path.
func (d *DB) traceNow(ot *opTrace) int64 {
	if ot == nil {
		return 0
	}
	return d.deviceNow()
}

// fileMayContain is the cheap user-key range test.
func fileMayContain(f *version.FileMeta, key []byte) bool {
	return kv.CompareUser(key, f.Smallest.UserKey()) >= 0 &&
		kv.CompareUser(key, f.Largest.UserKey()) <= 0
}

// tableGet looks key up in one table file. Caller holds d.mu.
func (d *DB) tableGet(f *version.FileMeta, key []byte, seq kv.SeqNum) ([]byte, kv.SeqNum, kv.Kind, bool, error) {
	t, err := d.openTable(f)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return t.GetEntry(key, seq)
}

// Snapshot pins a sequence number: reads through it see the database
// as of its creation, and compactions keep the versions it needs.
type Snapshot struct {
	seq kv.SeqNum
	db  *DB
}

// NewSnapshot captures the current state.
func (d *DB) NewSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.snapshots[d.seq]++
	return &Snapshot{seq: d.seq, db: d}
}

// Release un-pins the snapshot. Releasing twice is a no-op.
func (s *Snapshot) Release() {
	if s.db == nil {
		return
	}
	d := s.db
	s.db = nil
	d.mu.Lock()
	defer d.mu.Unlock()
	if invariant.Enabled {
		invariant.Assert(d.snapshots[s.seq] > 0, "releasing snapshot at seq %d with no registered pin", s.seq)
	}
	if n := d.snapshots[s.seq]; n > 1 {
		d.snapshots[s.seq] = n - 1
	} else {
		delete(d.snapshots, s.seq)
	}
}

// smallestSnapshot returns the oldest sequence number any reader can
// still observe. Caller holds d.mu.
func (d *DB) smallestSnapshot() kv.SeqNum {
	min := d.seq
	for s := range d.snapshots {
		if s < min {
			min = s
		}
	}
	return min
}
