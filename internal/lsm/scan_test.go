package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/vlog"
)

// iterScan is the streaming-iterator reference for Scan: Seek, then
// Next until limit entries.
func iterScan(t *testing.T, d *DB, start []byte, limit int) []KV {
	t.Helper()
	it := d.NewIterator()
	defer it.Close()
	var out []KV
	for it.Seek(start); it.Valid() && len(out) < limit; it.Next() {
		out = append(out, KV{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator from %q: %v", start, err)
	}
	return out
}

// iterScanReverse is the streaming-iterator reference for
// ScanReverse: position at the largest key <= start, then Prev.
func iterScanReverse(t *testing.T, d *DB, start []byte, limit int) []KV {
	t.Helper()
	it := d.NewIterator()
	defer it.Close()
	if start == nil {
		it.SeekToLast()
	} else if it.Seek(start); !it.Valid() {
		it.SeekToLast()
	} else if kv.CompareUser(it.Key(), start) > 0 {
		it.Prev()
	}
	var out []KV
	for ; it.Valid() && len(out) < limit; it.Prev() {
		out = append(out, KV{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
	}
	if err := it.Error(); err != nil {
		t.Fatalf("reverse iterator from %q: %v", start, err)
	}
	return out
}

func sameKVs(t *testing.T, what string, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: entry %d = (%q, %d bytes), want (%q, %d bytes)",
				what, i, got[i].Key, len(got[i].Value), want[i].Key, len(want[i].Value))
		}
	}
}

// TestScanMatchesIteratorVlog is a model test of the batched scan:
// with key–value separation on, Scan and ScanReverse must return
// exactly what the streaming Iterator does, over a random mix of
// inline and separated values, overwrites, tombstones and snapshots
// held across the load, with the data spread across the memtable, L0
// and deeper levels.
func TestScanMatchesIteratorVlog(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(11))
	const keys = 600
	model := map[string][]byte{}
	var snaps []*Snapshot
	defer func() {
		for _, s := range snaps {
			s.Release()
		}
	}()
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(keys))
		switch r := rng.Intn(20); {
		case r == 0:
			if err := d.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case r < 10:
			v := bigValue(fmt.Sprint(k, i), 256+rng.Intn(700)) // separated
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		default:
			v := bigValue(fmt.Sprint(k, i), rng.Intn(200)) // inline
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		if i%700 == 0 {
			// Held snapshots keep shadowed versions in the tree, so the
			// walk must skip them.
			snaps = append(snaps, d.NewSnapshot())
		}
	}
	lv := d.LevelProfile()
	var deep int
	for _, l := range lv[1:] {
		deep += l.Files
	}
	if d.mem.Len() == 0 || lv[0].Files == 0 || deep == 0 {
		t.Fatalf("data not spread: memtable %d entries, L0 %d files, L1+ %d files", d.mem.Len(), lv[0].Files, deep)
	}

	// The full forward scan equals the model.
	all, err := d.Scan(nil, keys+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(model) {
		t.Fatalf("full scan: %d entries, model has %d", len(all), len(model))
	}
	for _, e := range all {
		if want, ok := model[string(e.Key)]; !ok || !bytes.Equal(e.Value, want) {
			t.Fatalf("full scan: key %q has %d bytes, model %d (present %v)", e.Key, len(e.Value), len(want), ok)
		}
	}

	starts := [][]byte{nil, []byte("key"), []byte("key99999"), []byte("zzz")}
	for i := 0; i < 60; i++ {
		starts = append(starts, fmt.Appendf(nil, "key%05d", rng.Intn(keys+20)))
	}
	for _, start := range starts {
		for _, limit := range []int{1, 7, 50, keys} {
			got, err := d.Scan(start, limit)
			if err != nil {
				t.Fatalf("Scan(%q, %d): %v", start, limit, err)
			}
			sameKVs(t, fmt.Sprintf("Scan(%q, %d)", start, limit), got, iterScan(t, d, start, limit))
			got, err = d.ScanReverse(start, limit)
			if err != nil {
				t.Fatalf("ScanReverse(%q, %d): %v", start, limit, err)
			}
			sameKVs(t, fmt.Sprintf("ScanReverse(%q, %d)", start, limit), got, iterScanReverse(t, d, start, limit))
		}
	}
}

// TestScanMergesAdjacentVlogRecords: separated values written in key
// order sit next to each other in one segment, so one scan over them
// reads the log with a single device read while still counting every
// record it resolves.
func TestScanMergesAdjacentVlogRecords(t *testing.T) {
	cfg := vlogConfig()
	cfg.VlogSegSize = 1 * kv.MiB
	cfg.MemtableSize = 1 * kv.MiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 40
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", i)
		if err := d.Put([]byte(k), bigValue(k, 300+i)); err != nil {
			t.Fatal(err)
		}
	}
	reads0, ops0 := d.metrics.vlogReads.Value(), d.disk.Stats().ReadOps
	kvs, err := d.Scan(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("scan returned %d entries, want %d", len(kvs), n)
	}
	for i, e := range kvs {
		if k := fmt.Sprintf("key%05d", i); string(e.Key) != k || !bytes.Equal(e.Value, bigValue(k, 300+i)) {
			t.Fatalf("entry %d = (%q, %d bytes)", i, e.Key, len(e.Value))
		}
	}
	if got := d.metrics.vlogReads.Value() - reads0; got != n {
		t.Errorf("sealdb_vlog_reads_total rose by %d, want %d records", got, n)
	}
	if got := d.disk.Stats().ReadOps - ops0; got != 1 {
		t.Errorf("scan over %d adjacent records issued %d device reads, want 1", n, got)
	}
}

// newVlogFaultDB is vlogConfig with a faultfs injector under the
// drive stack.
func newVlogFaultDB(t *testing.T) (*DB, *faultfs.Drive) {
	t.Helper()
	cfg := vlogConfig()
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 7)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, fd
}

// storedPointer returns the value-log pointer key's tree entry holds.
func storedPointer(t *testing.T, d *DB, key string) (stored []byte, p vlog.Pointer) {
	t.Helper()
	d.mu.Lock()
	stored, _, ok, err := d.getStoredLocked([]byte(key))
	d.mu.Unlock()
	if err != nil || !ok || len(stored) != vlogPointerLen || stored[0] != vlogTagPtr {
		t.Fatalf("key %q: stored value %x (found %v, %v) is not a pointer", key, stored, ok, err)
	}
	p, err = vlog.DecodePointer(stored[1:])
	if err != nil {
		t.Fatal(err)
	}
	return stored, p
}

// TestScanVlogBitFlipFailsScan: one flipped bit inside a value-log
// record in the middle of a scan's range must fail the scan with a
// corruption error, never return a wrong value.
func TestScanVlogBitFlipFailsScan(t *testing.T) {
	d, fd := newVlogFaultDB(t)
	const n = 30
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", i)
		if err := d.Put([]byte(k), bigValue(k, 400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	_, p := storedPointer(t, d, "key00015")
	ext, err := d.backend.FileExtent(p.Seg)
	if err != nil {
		t.Fatal(err)
	}
	// A bit in the middle of the record's value.
	if err := fd.FlipBit(ext.Off+int64(p.Off)+int64(p.Len)/2, 3); err != nil {
		t.Fatal(err)
	}
	if kvs, err := d.Scan([]byte("key00010"), 10); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("Scan over the damaged record = (%d entries, %v), want vlog.ErrCorrupt", len(kvs), err)
	}
	if kvs, err := d.ScanReverse([]byte("key00020"), 10); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("ScanReverse over the damaged record = (%d entries, %v), want vlog.ErrCorrupt", len(kvs), err)
	}
	// Ranges that miss the record still read clean.
	kvs, err := d.Scan([]byte("key00016"), n)
	if err != nil || len(kvs) != n-16 {
		t.Fatalf("Scan past the damaged record = (%d entries, %v), want %d", len(kvs), err, n-16)
	}
}

// TestScanKeyCheckCatchesMisdirectedPointer: a tree pointer aimed at
// another intact record of the same segment passes the record CRC;
// the key check must still refuse it on every read path.
func TestScanKeyCheckCatchesMisdirectedPointer(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key%05d", i)
		if err := d.Put([]byte(k), bigValue(k, 300)); err != nil {
			t.Fatal(err)
		}
	}
	stored, pb := storedPointer(t, d, "key00003")
	if _, pa := storedPointer(t, d, "key00001"); pa.Seg != pb.Seg {
		t.Fatalf("records in segments %d and %d, want one segment", pa.Seg, pb.Seg)
	}
	// Re-point key00001 at key00003's record.
	d.mu.Lock()
	d.seq++
	d.mem.Add(d.seq, kv.KindSet, []byte("key00001"), stored)
	d.mu.Unlock()

	if _, err := d.Scan(nil, 10); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("Scan = %v, want vlog.ErrCorrupt from the key check", err)
	}
	if _, err := d.ScanReverse(nil, 10); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("ScanReverse = %v, want vlog.ErrCorrupt from the key check", err)
	}
	if _, err := d.Get([]byte("key00001")); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("Get = %v, want vlog.ErrCorrupt from the key check", err)
	}
	it := d.NewIterator()
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if err := it.Error(); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("Iterator = %v, want vlog.ErrCorrupt from the key check", err)
	}
	if v, err := d.Get([]byte("key00003")); err != nil || !bytes.Equal(v, bigValue("key00003", 300)) {
		t.Fatalf("Get of the record's own key = (%d bytes, %v)", len(v), err)
	}
}

// TestScanAllocsPerEntry bounds the batched scan's per-entry heap
// cost with the value log on: ninety more entries may cost at most
// twenty more allocations (arena and slice growth, table iterators
// crossing blocks), not several per entry.
func TestScanAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if invariant.Enabled {
		t.Skip("lock-order watchdog allocates on profiled acquisitions")
	}
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = 512
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	val := make([]byte, 1024)
	for i := 0; i < 2000; i++ {
		if err := d.Put(fmt.Appendf(nil, "key%09d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	start := []byte("key000000500")
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(50, func() {
			kvs, err := d.Scan(start, limit)
			if err != nil || len(kvs) != limit {
				t.Fatalf("Scan(%d) = %d entries, %v", limit, len(kvs), err)
			}
		})
	}
	a10, a100 := allocs(10), allocs(100)
	t.Logf("Scan(10): %.0f allocs, Scan(100): %.0f allocs", a10, a100)
	if a100-a10 > 20 {
		t.Errorf("Scan(100) allocates %.0f times, Scan(10) %.0f: %.0f more for 90 entries, want <= 20", a100, a10, a100-a10)
	}
}
