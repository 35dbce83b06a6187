// Package vlog implements SEALDB's value log: the WiscKey-style
// key–value separation layer that keeps large values out of the LSM
// tree. Values above the engine's threshold are appended to segment
// files — framed, checksummed logs whose extents come from the
// dynamic-band allocator — and the tree stores a fixed-size Pointer
// in their place.
//
// This package owns the mechanical pieces: the record wire format
// and its CRC, the Pointer codec, a Writer that frames appends into
// a segment, a Scanner that walks segment bytes and finds the torn
// tail after a crash, and the accounting Table that tracks per-
// segment live/dead bytes for set-aware garbage collection. Policy —
// when to separate, when to collect, how to repair pointers — lives
// in internal/lsm, which drives these types under the engine lock.
//
// Record format within a segment (all integers little-endian):
//
//	crc     uint32   masked CRC-32C over seed(segment) ‖ rest
//	klen    uvarint  key length
//	vlen    uvarint  value length
//	key     klen bytes
//	value   vlen bytes
//
// The CRC is seeded with the segment's file number, like the WAL's
// tagged frames: a record sitting at the right offset of the wrong
// (recycled) segment fails its checksum instead of decoding as live
// data.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"sealdb/internal/obs"
)

// ErrCorrupt reports a record that failed structural or checksum
// validation. During tail recovery it marks the torn point; anywhere
// else it is real corruption.
var ErrCorrupt = errors.New("vlog: corrupt record")

// crcSize is the record header's checksum field width.
const crcSize = 4

// maxLen bounds a single key or value length a decoder will accept.
// Segments are a few MiB; anything claiming more is a torn or
// corrupt length byte, and rejecting it keeps adversarial inputs
// from turning into huge slice bounds.
const maxLen = 1 << 31

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mask implements LevelDB's CRC masking so CRCs stored in a segment
// do not collide with CRCs computed over segment bytes.
func mask(c uint32) uint32 { return ((c >> 15) | (c << 17)) + 0xa282ead8 }

// recordCRC checksums a record body (everything after the crc field)
// seeded with the segment file number. The eight little-endian seed
// bytes are folded in through the table by hand: handing a stack
// array to crc32.Update moves it to the heap, one allocation per
// record on every append, chase and segment scan. The result equals
// crc32.Update over the seed bytes followed by the body.
func recordCRC(seg uint64, body []byte) uint32 {
	c := ^uint32(0)
	for i := 0; i < 8; i++ {
		c = castagnoli[byte(c)^byte(seg>>(8*i))] ^ c>>8
	}
	c = crc32.Update(^c, castagnoli, body)
	return mask(c)
}

// RecordSize returns the encoded size of a record holding a key and
// value of the given lengths.
func RecordSize(klen, vlen int) int {
	var tmp [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(klen))
	n += binary.PutUvarint(tmp[n:], uint64(vlen))
	return crcSize + n + klen + vlen
}

// AppendRecord appends the framed record for (key, value) in segment
// seg to dst and returns the extended slice.
func AppendRecord(dst []byte, seg uint64, key, value []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	crc := recordCRC(seg, dst[start+crcSize:])
	binary.LittleEndian.PutUint32(dst[start:start+crcSize], crc)
	return dst
}

// DecodeRecord decodes one record from the head of b, returning the
// key, value, and encoded length consumed. The returned slices alias
// b. A short buffer, bad length, or checksum mismatch all return
// ErrCorrupt: the caller decides whether that means a torn tail
// (clean truncation) or damage.
func DecodeRecord(seg uint64, b []byte) (key, value []byte, n int, err error) {
	if len(b) < crcSize {
		return nil, nil, 0, fmt.Errorf("%w: %d bytes is shorter than a record header", ErrCorrupt, len(b))
	}
	body := b[crcSize:]
	klen, kn := binary.Uvarint(body)
	if kn <= 0 || klen > maxLen {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	vlen, vn := binary.Uvarint(body[kn:])
	if vn <= 0 || vlen > maxLen {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", ErrCorrupt)
	}
	payload := body[kn+vn:]
	if uint64(len(payload)) < klen+vlen {
		return nil, nil, 0, fmt.Errorf("%w: record claims %d payload bytes, %d remain", ErrCorrupt, klen+vlen, len(payload))
	}
	n = crcSize + kn + vn + int(klen) + int(vlen)
	if got, want := recordCRC(seg, b[crcSize:n]), binary.LittleEndian.Uint32(b[:crcSize]); got != want {
		return nil, nil, 0, fmt.Errorf("%w: checksum mismatch in segment %d", ErrCorrupt, seg)
	}
	return payload[:klen:klen], payload[klen : klen+vlen : klen+vlen], n, nil
}

// PointerSize is the fixed wire size of an encoded Pointer; the LSM
// separates a value only when it is larger than this, so separation
// always shrinks the tree.
const PointerSize = 16

// Pointer locates one record inside a value-log segment. Len is the
// full encoded record length, so a chase is a single ReadAt followed
// by DecodeRecord, and dead-byte accounting can charge the exact
// footprint a drop releases.
type Pointer struct {
	Seg uint64 // segment file number
	Off uint32 // byte offset of the record within the segment
	Len uint32 // encoded record length, header included
}

// AppendPointer appends p's fixed-size encoding to dst.
func AppendPointer(dst []byte, p Pointer) []byte {
	var b [PointerSize]byte
	binary.LittleEndian.PutUint64(b[0:8], p.Seg)
	binary.LittleEndian.PutUint32(b[8:12], p.Off)
	binary.LittleEndian.PutUint32(b[12:16], p.Len)
	return append(dst, b[:]...)
}

// DecodePointer decodes a Pointer from exactly PointerSize bytes.
func DecodePointer(b []byte) (Pointer, error) {
	if len(b) != PointerSize {
		return Pointer{}, fmt.Errorf("%w: pointer is %d bytes, want %d", ErrCorrupt, len(b), PointerSize)
	}
	return Pointer{
		Seg: binary.LittleEndian.Uint64(b[0:8]),
		Off: binary.LittleEndian.Uint32(b[8:12]),
		Len: binary.LittleEndian.Uint32(b[12:16]),
	}, nil
}

// Writer frames records into one segment. The sink is the segment's
// append file (any io.Writer in tests); off is where this writer
// resumes, so a reopened segment continues from its recovered valid
// length. Writer does not lock: the engine serializes appends under
// its own mutex.
type Writer struct {
	w   io.Writer
	seg uint64
	off int64
	buf []byte
}

// NewWriter returns a Writer appending to segment seg at offset off.
func NewWriter(w io.Writer, seg uint64, off int64) *Writer {
	return &Writer{w: w, seg: seg, off: off}
}

// Append frames (key, value), writes the record to the sink, and
// returns the Pointer a tree entry should store. The sink's write is
// the durability point: when Append returns, the record bytes have
// been handed to the device.
func (w *Writer) Append(key, value []byte) (Pointer, error) {
	w.buf = AppendRecord(w.buf[:0], w.seg, key, value)
	if w.off+int64(len(w.buf)) > maxLen {
		return Pointer{}, fmt.Errorf("vlog: segment %d overflows pointer offset range at %d bytes", w.seg, w.off)
	}
	p := Pointer{Seg: w.seg, Off: uint32(w.off), Len: uint32(len(w.buf))}
	if _, err := w.w.Write(w.buf); err != nil {
		return Pointer{}, err
	}
	w.off += int64(len(w.buf))
	return p, nil
}

// Seg returns the segment file number this writer appends to.
func (w *Writer) Seg() uint64 { return w.seg }

// Offset returns the segment offset the next Append will land at —
// equivalently, the record bytes written to the segment so far.
func (w *Writer) Offset() int64 { return w.off }

// Scanner walks the records in a segment's bytes. Next returns false
// at the first byte range that does not decode as a whole record;
// ValidLen then reports the clean prefix. On the active segment after
// a crash that boundary is the torn tail — everything before it is
// intact (each record carries its own CRC), everything after is an
// interrupted append to truncate away.
type Scanner struct {
	seg      uint64
	buf      []byte
	pos      int
	key, val []byte
	ptr      Pointer
	err      error
}

// NewScanner returns a Scanner over buf, which holds segment seg's
// bytes starting at offset zero.
func NewScanner(seg uint64, buf []byte) *Scanner {
	return &Scanner{seg: seg, buf: buf}
}

// Next advances to the next record, reporting whether one was
// decoded.
func (s *Scanner) Next() bool {
	if s.err != nil || s.pos >= len(s.buf) {
		return false
	}
	key, val, n, err := DecodeRecord(s.seg, s.buf[s.pos:])
	if err != nil {
		s.err = err
		return false
	}
	s.key, s.val = key, val
	s.ptr = Pointer{Seg: s.seg, Off: uint32(s.pos), Len: uint32(n)}
	s.pos += n
	return true
}

// Key returns the current record's key. Valid until the next call to
// Next.
func (s *Scanner) Key() []byte { return s.key }

// Value returns the current record's value. Valid until the next
// call to Next.
func (s *Scanner) Value() []byte { return s.val }

// Pointer returns the Pointer locating the current record.
func (s *Scanner) Pointer() Pointer { return s.ptr }

// ValidLen returns the length of the clean record prefix: the
// truncation point for tail recovery.
func (s *Scanner) ValidLen() int64 { return int64(s.pos) }

// Err returns the decode error that ended the scan, or nil if the
// buffer was consumed exactly.
func (s *Scanner) Err() error { return s.err }

// SegmentInfo is one segment's accounting entry.
type SegmentInfo struct {
	Num    uint64 // storage file number
	Bytes  int64  // record bytes written (the segment's valid length)
	Dead   int64  // bytes of records known superseded or deleted
	Sealed bool   // full segments are sealed and become GC candidates
}

// Live returns the segment's live record bytes.
func (s SegmentInfo) Live() int64 { return s.Bytes - s.Dead }

// DeadRatio returns the fraction of the segment's bytes known dead.
func (s SegmentInfo) DeadRatio() float64 {
	if s.Bytes <= 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Bytes)
}

// Table tracks per-segment live-byte accounting for the garbage
// collector. The engine feeds it from three sources: appends extend
// the active segment, compaction drops and GC re-puts report dead
// bytes, and recovery rebuilds the whole table from the manifest.
// Victim selection reads it to find the segment whose reclamation
// frees the most dead space.
type Table struct {
	// mu guards the segment map. The engine mutates the table with
	// the DB lock held; metric gauges read it without, so it carries
	// its own lock at the bottom of the hierarchy.
	//
	// lockorder: lsm_db_mu < vlog_table_mu
	mu   obs.Mutex
	segs map[uint64]*SegmentInfo
}

// NewTable returns an empty accounting table.
func NewTable() *Table {
	t := &Table{segs: map[uint64]*SegmentInfo{}}
	t.mu.Profile("vlog_table_mu")
	return t
}

// Open registers segment num as the active (unsealed) segment with
// the given starting length — zero for a fresh segment, the
// recovered valid length after a crash.
func (t *Table) Open(num uint64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.segs[num] = &SegmentInfo{Num: num, Bytes: bytes}
}

// Extend records n bytes appended to segment num.
func (t *Table) Extend(num uint64, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.segs[num]; s != nil {
		s.Bytes += n
	}
}

// Seal marks segment num full at the given final length, making it a
// GC candidate.
func (t *Table) Seal(num uint64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.segs[num]; s != nil {
		s.Bytes = bytes
		s.Sealed = true
	} else {
		t.segs[num] = &SegmentInfo{Num: num, Bytes: bytes, Sealed: true}
	}
}

// AddDead charges n dead bytes to segment num, clamped to the
// segment's size so replayed or duplicated drops cannot push live
// accounting negative.
func (t *Table) AddDead(num uint64, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.segs[num]; s != nil {
		s.Dead += n
		if s.Dead > s.Bytes {
			s.Dead = s.Bytes
		}
	}
}

// Drop forgets segment num after the collector has reclaimed it.
func (t *Table) Drop(num uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.segs, num)
}

// Info returns segment num's entry.
func (t *Table) Info(num uint64) (SegmentInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.segs[num]
	if !ok {
		return SegmentInfo{}, false
	}
	return *s, true
}

// Segments returns all entries sorted by file number.
func (t *Table) Segments() []SegmentInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SegmentInfo, 0, len(t.segs))
	for _, s := range t.segs {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// Victim returns the sealed segment with the highest dead ratio, if
// any reaches minRatio. Ties break toward the lowest file number so
// selection is deterministic under a fixed accounting state.
func (t *Table) Victim(minRatio float64) (SegmentInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best *SegmentInfo
	for _, s := range t.segs {
		if !s.Sealed || s.DeadRatio() < minRatio {
			continue
		}
		if best == nil || s.DeadRatio() > best.DeadRatio() ||
			(s.DeadRatio() == best.DeadRatio() && s.Num < best.Num) {
			best = s
		}
	}
	if best == nil {
		return SegmentInfo{}, false
	}
	return *best, true
}

// Totals returns the table-wide live and dead byte counts and the
// number of tracked segments.
func (t *Table) Totals() (live, dead int64, segments int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.segs {
		live += s.Live()
		dead += s.Dead
	}
	return live, dead, len(t.segs)
}
