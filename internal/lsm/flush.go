package lsm

import (
	"sealdb/internal/memtable"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

// flushMemtable writes a memtable to a level-0 SSTable and logs the
// edit. newLogNum, when nonzero, is recorded so recovery replays only
// the fresh WAL. Caller holds d.mu.
func (d *DB) flushMemtable(mem *memtable.MemTable, newLogNum uint64) error {
	if mem.Empty() {
		return nil
	}
	start := d.markDevice()
	sp := d.journal.Begin("flush", 0)

	b := sstable.NewBuilder().SetCompression(d.cfg.Compression)
	it := mem.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		b.Add(it.Key(), it.Value())
	}
	data, meta, err := b.Finish()
	if err != nil {
		return err
	}
	num := d.vs.NewFileNum()
	if err := d.backend.WriteFile(num, data); err != nil {
		return err
	}
	fm := &version.FileMeta{
		Num:      num,
		Size:     meta.Size,
		Smallest: meta.Smallest,
		Largest:  meta.Largest,
	}
	edit := &version.Edit{
		Added:      []version.AddedFile{{Level: 0, Meta: fm}},
		HasLastSeq: true, LastSeq: d.seq,
	}
	if newLogNum != 0 {
		edit.HasLogNum, edit.LogNum = true, newLogNum
	}
	if err := d.vs.LogAndApply(edit); err != nil {
		return err
	}

	d.compID++
	d.recordCompaction(CompactionInfo{
		ID:          d.compID,
		FromLevel:   -1,
		ToLevel:     0,
		OutputBytes: meta.Size,
		OutputFiles: 1,
		Flush:       true,
	}, start)
	sp.Set("table", int64(num))
	sp.Set("bytes", meta.Size)
	sp.End()
	return nil
}
