package vlog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct{ key, value string }{
		{"k", "v"},
		{"key000042", string(bytes.Repeat([]byte{0xab}, 4096))},
		{"", "value-with-empty-key"},
		{"empty-value", ""},
		{"", ""},
	}
	var buf []byte
	for _, c := range cases {
		buf = AppendRecord(buf[:0], 7, []byte(c.key), []byte(c.value))
		if got := RecordSize(len(c.key), len(c.value)); got != len(buf) {
			t.Fatalf("RecordSize(%d, %d) = %d, encoded %d", len(c.key), len(c.value), got, len(buf))
		}
		k, v, n, err := DecodeRecord(7, buf)
		if err != nil {
			t.Fatalf("decode (%q, %q): %v", c.key, c.value, err)
		}
		if n != len(buf) || string(k) != c.key || string(v) != c.value {
			t.Fatalf("round trip (%q, %q): got (%q, %q) n=%d", c.key, c.value, k, v, n)
		}
	}
}

// TestRecordGoldenVectors pins the record encoding, checksum seed
// included, to bytes produced by earlier builds, so segments already
// on disk keep decoding.
func TestRecordGoldenVectors(t *testing.T) {
	cases := []struct {
		seg  uint64
		want string
	}{
		{7, "1e2b367d0a057573657230303030343276616c7565"},
		{0x0102030405060708, "e94ff5cd0a057573657230303030343276616c7565"},
	}
	for _, c := range cases {
		rec := AppendRecord(nil, c.seg, []byte("user000042"), []byte("value"))
		if got := hex.EncodeToString(rec); got != c.want {
			t.Fatalf("segment %#x: record %s, want %s", c.seg, got, c.want)
		}
		want, _ := hex.DecodeString(c.want)
		if k, v, _, err := DecodeRecord(c.seg, want); err != nil || string(k) != "user000042" || string(v) != "value" {
			t.Fatalf("segment %#x: golden record decodes to (%q, %q, %v)", c.seg, k, v, err)
		}
	}
}

// TestRecordCRCAllocFree keeps the per-record checksum off the heap:
// it runs once per record on every append, chase and segment scan.
func TestRecordCRCAllocFree(t *testing.T) {
	body := []byte("record body")
	if n := testing.AllocsPerRun(100, func() { recordCRC(1<<40+3, body) }); n != 0 {
		t.Fatalf("recordCRC allocates %.1f times per call, want 0", n)
	}
}

func TestRecordSegmentSeedMismatch(t *testing.T) {
	rec := AppendRecord(nil, 7, []byte("k"), []byte("v"))
	if _, _, _, err := DecodeRecord(8, rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode under wrong segment seed: %v, want ErrCorrupt", err)
	}
}

func TestRecordCorruption(t *testing.T) {
	rec := AppendRecord(nil, 3, []byte("key"), bytes.Repeat([]byte("v"), 100))
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x40
		if _, _, _, err := DecodeRecord(3, mut); err == nil {
			t.Fatalf("flipped byte %d decoded clean", i)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, err := DecodeRecord(3, rec[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestPointerRoundTrip(t *testing.T) {
	p := Pointer{Seg: 1<<40 + 17, Off: 123456, Len: 789}
	b := AppendPointer(nil, p)
	if len(b) != PointerSize {
		t.Fatalf("encoded pointer is %d bytes, want %d", len(b), PointerSize)
	}
	got, err := DecodePointer(b)
	if err != nil || got != p {
		t.Fatalf("pointer round trip: %+v, %v", got, err)
	}
	if _, err := DecodePointer(b[:PointerSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short pointer: %v, want ErrCorrupt", err)
	}
}

func TestWriterScannerTornTail(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink, 11, 0)
	type rec struct {
		key, val string
		ptr      Pointer
	}
	recs := []rec{
		{key: "alpha", val: string(bytes.Repeat([]byte("A"), 200))},
		{key: "beta", val: string(bytes.Repeat([]byte("B"), 90))},
		{key: "gamma", val: string(bytes.Repeat([]byte("C"), 500))},
	}
	for i := range recs {
		p, err := w.Append([]byte(recs[i].key), []byte(recs[i].val))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs[i].ptr = p
	}
	if w.Offset() != int64(sink.Len()) {
		t.Fatalf("writer offset %d, sink holds %d", w.Offset(), sink.Len())
	}

	// Clean scan: every record, pointers matching what Append issued.
	s := NewScanner(11, sink.Bytes())
	for i := range recs {
		if !s.Next() {
			t.Fatalf("scan stopped at record %d: %v", i, s.Err())
		}
		if string(s.Key()) != recs[i].key || string(s.Value()) != recs[i].val || s.Pointer() != recs[i].ptr {
			t.Fatalf("record %d: key %q value len %d ptr %+v, want %q/%d/%+v",
				i, s.Key(), len(s.Value()), s.Pointer(), recs[i].key, len(recs[i].val), recs[i].ptr)
		}
		// Pointer-addressed slice must decode back to the same record.
		off, end := s.Pointer().Off, s.Pointer().Off+s.Pointer().Len
		k, v, _, err := DecodeRecord(11, sink.Bytes()[off:end])
		if err != nil || string(k) != recs[i].key || string(v) != recs[i].val {
			t.Fatalf("pointer chase of record %d: %q, %v", i, k, err)
		}
	}
	if s.Next() || s.Err() != nil {
		t.Fatalf("clean scan did not end cleanly: next=%v err=%v", s.Next(), s.Err())
	}
	if s.ValidLen() != int64(sink.Len()) {
		t.Fatalf("clean ValidLen %d, want %d", s.ValidLen(), sink.Len())
	}

	// Torn tail: cut the last record mid-write; ValidLen must land on
	// the boundary before it, for every cut position.
	full := sink.Bytes()
	lastStart := int64(recs[2].ptr.Off)
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		ts := NewScanner(11, full[:cut])
		n := 0
		for ts.Next() {
			n++
		}
		if n != 2 || ts.ValidLen() != lastStart || !errors.Is(ts.Err(), ErrCorrupt) {
			t.Fatalf("cut %d: %d records, ValidLen %d, err %v; want 2 records at %d", cut, n, ts.ValidLen(), ts.Err(), lastStart)
		}
	}

	// A writer reopened at the recovered length keeps issuing correct
	// pointers.
	w2 := NewWriter(&sink, 11, int64(sink.Len()))
	p, err := w2.Append([]byte("delta"), []byte("D"))
	if err != nil {
		t.Fatalf("reopened append: %v", err)
	}
	k, v, _, err := DecodeRecord(11, sink.Bytes()[p.Off:p.Off+p.Len])
	if err != nil || string(k) != "delta" || string(v) != "D" {
		t.Fatalf("reopened pointer chase: %q %q %v", k, v, err)
	}
}

func TestTableAccounting(t *testing.T) {
	tab := NewTable()
	tab.Open(5, 0)
	tab.Extend(5, 1000)
	if s, ok := tab.Info(5); !ok || s.Bytes != 1000 || s.Dead != 0 || s.Sealed {
		t.Fatalf("after extend: %+v %v", s, ok)
	}
	tab.Seal(5, 1000)
	tab.AddDead(5, 600)
	s, _ := tab.Info(5)
	if s.Live() != 400 || s.DeadRatio() != 0.6 || !s.Sealed {
		t.Fatalf("after seal+dead: %+v", s)
	}
	// Clamp: dead can never exceed size even if drops double-report.
	tab.AddDead(5, 10_000)
	if s, _ := tab.Info(5); s.Dead != 1000 || s.Live() != 0 {
		t.Fatalf("dead not clamped: %+v", s)
	}
	// Seal of an unknown segment (manifest replay order) registers it.
	tab.Seal(9, 500)
	if s, ok := tab.Info(9); !ok || !s.Sealed || s.Bytes != 500 {
		t.Fatalf("seal-register: %+v %v", s, ok)
	}
	live, dead, n := tab.Totals()
	if live != 500 || dead != 1000 || n != 2 {
		t.Fatalf("totals: live=%d dead=%d n=%d", live, dead, n)
	}
	tab.Drop(5)
	if _, ok := tab.Info(5); ok {
		t.Fatal("segment 5 survived Drop")
	}
	if got := tab.Segments(); len(got) != 1 || got[0].Num != 9 {
		t.Fatalf("segments after drop: %+v", got)
	}
}

func TestTableVictimSelection(t *testing.T) {
	tab := NewTable()
	// Active segment: never a victim regardless of dead ratio.
	tab.Open(1, 0)
	tab.Extend(1, 100)
	tab.AddDead(1, 100)
	if v, ok := tab.Victim(0.1); ok {
		t.Fatalf("unsealed victim selected: %+v", v)
	}
	// Sealed segments: highest dead ratio wins.
	tab.Seal(2, 1000)
	tab.AddDead(2, 300)
	tab.Seal(3, 1000)
	tab.AddDead(3, 700)
	tab.Seal(4, 1000)
	tab.AddDead(4, 500)
	v, ok := tab.Victim(0.25)
	if !ok || v.Num != 3 {
		t.Fatalf("victim = %+v, %v; want segment 3", v, ok)
	}
	// Threshold excludes everything below it.
	if v, ok := tab.Victim(0.75); ok {
		t.Fatalf("victim above threshold: %+v", v)
	}
	// Deterministic tie-break: equal ratios pick the lowest number.
	tab.AddDead(2, 400) // seg 2 now 0.7, tied with seg 3
	if v, ok := tab.Victim(0.25); !ok || v.Num != 2 {
		t.Fatalf("tie-break victim = %+v, %v; want segment 2", v, ok)
	}
}
