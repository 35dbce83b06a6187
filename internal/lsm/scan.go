package lsm

import (
	"cmp"
	"slices"

	"sealdb/internal/kv"
	"sealdb/internal/vlog"
)

// KV is a key/value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with keys >= start, the range
// query used by YCSB workload E.
//
// The whole scan runs under one d.mu hold, so it needs neither a
// snapshot nor an iterator pin: nothing can commit, compact or
// collect while it reads. Its value-log pointers are chased as one
// batch after the walk (see scanBatch). The returned keys and values
// share the scan's arena; retaining one retains its whole chunk.
func (d *DB) Scan(start []byte, limit int) ([]KV, error) {
	return d.scan(limit, func(it *Iterator) { it.seek(start) }, (*Iterator).next)
}

// ScanReverse returns up to limit live entries with keys <= start in
// descending order (nil start = from the largest key). It runs like
// Scan.
func (d *DB) ScanReverse(start []byte, limit int) ([]KV, error) {
	position := func(it *Iterator) {
		if start == nil {
			it.seekToLast()
			return
		}
		it.seek(start)
		switch {
		case it.ok && kv.CompareUser(it.key, start) > 0:
			it.prev()
		case !it.ok && it.err == nil:
			it.seekToLast()
		}
	}
	return d.scan(limit, position, (*Iterator).prev)
}

// scan walks up to limit entries from where position leaves an
// iterator, stepping with step, then resolves their values in one
// batch.
func (d *DB) scan(limit int, position, step func(*Iterator)) ([]KV, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if limit <= 0 {
		return nil, nil
	}
	it := d.newIteratorLocked(d.seq)
	var b scanBatch
	for position(it); it.ok; step(it) {
		if err := b.add(d, it.key, it.stored); err != nil {
			return nil, err
		}
		if len(b.ents) == limit {
			break
		}
	}
	if it.err != nil {
		return nil, it.err
	}
	if err := b.chase(d); err != nil {
		return nil, err
	}
	return b.ents, nil
}

// scanBatch gathers a scan's entries so their values resolve in one
// pass. Keys and inline values are copied into an arena of chunks as
// the walk finds them. Value-log pointers are collected, sorted by
// (segment, offset), and read into one region laid out in that order,
// so the drive sees one ascending sweep per segment instead of one
// seek per key, and records that sit next to each other in a segment
// come back in a single read.
type scanBatch struct {
	ents  []KV      // the result; separated values are filled by chase
	ptrs  []scanPtr // separated values awaiting the chase
	chunk []byte    // the arena's current chunk
}

// scanPtr is a separated value awaiting the chase: its pointer and
// the entry it fills.
type scanPtr struct {
	p   vlog.Pointer
	ent int
}

// Arena chunk sizes: chunks double from the minimum up to the
// maximum, so small scans allocate little and large ones waste at
// most one chunk's tail. Chunks never move once allocated, so entries
// can point into them while the walk goes on.
const (
	scanChunkMin = 4 << 10
	scanChunkMax = 64 << 10
)

// put copies p into the arena and returns the copy, whose capacity
// ends at its own bytes so appending to it cannot overwrite a
// neighbour.
func (b *scanBatch) put(p []byte) []byte {
	if cap(b.chunk)-len(b.chunk) < len(p) {
		n := min(max(2*cap(b.chunk), scanChunkMin), scanChunkMax)
		b.chunk = make([]byte, 0, max(n, len(p)))
	}
	off := len(b.chunk)
	b.chunk = append(b.chunk, p...)
	return b.chunk[off:len(b.chunk):len(b.chunk)]
}

// add records one entry: its key and its stored tree value, which is
// either copied (inline) or queued for the chase (separated).
func (b *scanBatch) add(d *DB, key, stored []byte) error {
	inline, p, separated, err := d.decodeStored(stored)
	if err != nil {
		return err
	}
	e := KV{Key: b.put(key)}
	if separated {
		b.ptrs = append(b.ptrs, scanPtr{p: p, ent: len(b.ents)})
	} else {
		e.Value = b.put(inline)
	}
	b.ents = append(b.ents, e)
	return nil
}

// chase reads every queued pointer's record into one region laid out
// in (segment, offset) order — one ReadFileAt per run of adjacent
// records — then decodes each record, checking its CRC and that it
// holds the entry's key. Each value aliases its record in the region.
// Caller holds d.mu.
func (b *scanBatch) chase(d *DB) error {
	if len(b.ptrs) == 0 {
		return nil
	}
	slices.SortFunc(b.ptrs, func(x, y scanPtr) int {
		return cmp.Or(cmp.Compare(x.p.Seg, y.p.Seg), cmp.Compare(x.p.Off, y.p.Off))
	})
	total := 0
	for _, sp := range b.ptrs {
		total += int(sp.p.Len)
	}
	region := make([]byte, total)
	for i := 0; i < len(b.ptrs); {
		first := b.ptrs[i].p
		end := int64(first.Off) + int64(first.Len)
		j := i + 1
		for j < len(b.ptrs) && b.ptrs[j].p.Seg == first.Seg && int64(b.ptrs[j].p.Off) == end {
			end += int64(b.ptrs[j].p.Len)
			j++
		}
		if err := d.vlogReadAt(first, region[:end-int64(first.Off)]); err != nil {
			return err
		}
		for _, sp := range b.ptrs[i:j] {
			e := &b.ents[sp.ent]
			v, err := checkVlogRecord(sp.p, e.Key, region[:sp.p.Len])
			if err != nil {
				return err
			}
			e.Value = v[:len(v):len(v)]
			region = region[sp.p.Len:]
		}
		i = j
	}
	d.metrics.vlogReads.Add(int64(len(b.ptrs)))
	return nil
}
