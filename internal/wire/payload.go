package wire

import (
	"encoding/binary"
	"fmt"
)

// Payload encodings. Every variable-length field is a uvarint length
// followed by that many bytes; multi-entry payloads lead with a
// uvarint count. Decoders return slices aliasing the input payload.

// appendBytes appends one length-prefixed byte field.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// takeBytes consumes one length-prefixed field from p.
func takeBytes(p []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, fmt.Errorf("%w: bad length prefix", ErrBadFrame)
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// AppendGet encodes an OpGet payload: the key.
func AppendGet(dst, key []byte) []byte { return appendBytes(dst, key) }

// DecodeGet parses an OpGet payload.
func DecodeGet(p []byte) (key []byte, err error) {
	key, rest, err := takeBytes(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in GET", ErrBadFrame, len(rest))
	}
	return key, nil
}

// AppendPut encodes an OpPut payload: key then value.
func AppendPut(dst, key, value []byte) []byte {
	return appendBytes(appendBytes(dst, key), value)
}

// DecodePut parses an OpPut payload.
func DecodePut(p []byte) (key, value []byte, err error) {
	key, rest, err := takeBytes(p)
	if err != nil {
		return nil, nil, err
	}
	value, rest, err = takeBytes(rest)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in PUT", ErrBadFrame, len(rest))
	}
	return key, value, nil
}

// AppendDelete encodes an OpDelete payload: the key.
func AppendDelete(dst, key []byte) []byte { return appendBytes(dst, key) }

// DecodeDelete parses an OpDelete payload.
func DecodeDelete(p []byte) (key []byte, err error) {
	key, rest, err := takeBytes(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in DELETE", ErrBadFrame, len(rest))
	}
	return key, nil
}

// BatchEntry is one mutation inside an OpWriteBatch payload.
type BatchEntry struct {
	Delete bool
	Key    []byte
	Value  []byte // nil for deletes
}

// Batch entry kind bytes.
const (
	batchKindPut    = 0
	batchKindDelete = 1
)

// AppendWriteBatch encodes an OpWriteBatch payload: a count followed
// by (kind, key[, value]) entries.
func AppendWriteBatch(dst []byte, entries []BatchEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		if e.Delete {
			dst = append(dst, batchKindDelete)
			dst = appendBytes(dst, e.Key)
		} else {
			dst = append(dst, batchKindPut)
			dst = appendBytes(dst, e.Key)
			dst = appendBytes(dst, e.Value)
		}
	}
	return dst
}

// DecodeWriteBatch parses an OpWriteBatch payload. Entries alias p.
func DecodeWriteBatch(p []byte) ([]BatchEntry, error) {
	count, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad batch count", ErrBadFrame)
	}
	// An entry is at least 2 bytes (kind + empty-key length), bounding
	// count before allocating.
	if count > uint64(len(p)-w)/2+1 {
		return nil, fmt.Errorf("%w: batch count %d exceeds payload", ErrBadFrame, count)
	}
	p = p[w:]
	entries := make([]BatchEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("%w: batch truncated at entry %d", ErrBadFrame, i)
		}
		kind := p[0]
		p = p[1:]
		var e BatchEntry
		var err error
		switch kind {
		case batchKindPut:
			if e.Key, p, err = takeBytes(p); err != nil {
				return nil, err
			}
			if e.Value, p, err = takeBytes(p); err != nil {
				return nil, err
			}
		case batchKindDelete:
			e.Delete = true
			if e.Key, p, err = takeBytes(p); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown batch entry kind %d", ErrBadFrame, kind)
		}
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in WRITEBATCH", ErrBadFrame, len(p))
	}
	return entries, nil
}

// AppendScan encodes an OpScan payload: start key and entry limit.
func AppendScan(dst, start []byte, limit uint32) []byte {
	dst = appendBytes(dst, start)
	return binary.AppendUvarint(dst, uint64(limit))
}

// DecodeScan parses an OpScan payload.
func DecodeScan(p []byte) (start []byte, limit uint32, err error) {
	start, rest, err := takeBytes(p)
	if err != nil {
		return nil, 0, err
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || len(rest) != w || n > 1<<31 {
		return nil, 0, fmt.Errorf("%w: bad scan limit", ErrBadFrame)
	}
	return start, uint32(n), nil
}

// KV is one key/value pair of a scan reply.
type KV struct {
	Key   []byte
	Value []byte
}

// ScanPair is the shape of a scan reply entry: KV, or any struct type
// with exactly its fields, such as the engine's result type, which a
// server can then encode without converting it.
type ScanPair interface {
	~struct{ Key, Value []byte }
}

// ScanReplySize returns the encoded size of the scan reply body
// AppendScanReply produces for kvs.
func ScanReplySize[P ScanPair](kvs []P) int {
	n := uvarintLen(uint64(len(kvs)))
	for _, p := range kvs {
		e := struct{ Key, Value []byte }(p)
		n += uvarintLen(uint64(len(e.Key))) + len(e.Key) + uvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	return n
}

// AppendScanReply encodes a scan reply body: count then (key, value)
// pairs. A dst with ScanReplySize bytes of spare capacity takes the
// body without growing.
func AppendScanReply[P ScanPair](dst []byte, kvs []P) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(kvs)))
	for _, p := range kvs {
		e := struct{ Key, Value []byte }(p)
		dst = appendBytes(dst, e.Key)
		dst = appendBytes(dst, e.Value)
	}
	return dst
}

// uvarintLen returns the encoded length of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// DecodeScanReply parses a scan reply body. Entries alias p.
func DecodeScanReply(p []byte) ([]KV, error) {
	count, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad scan reply count", ErrBadFrame)
	}
	if count > uint64(len(p)-w)/2+1 {
		return nil, fmt.Errorf("%w: scan reply count %d exceeds payload", ErrBadFrame, count)
	}
	p = p[w:]
	kvs := make([]KV, 0, count)
	for i := uint64(0); i < count; i++ {
		var e KV
		var err error
		if e.Key, p, err = takeBytes(p); err != nil {
			return nil, err
		}
		if e.Value, p, err = takeBytes(p); err != nil {
			return nil, err
		}
		kvs = append(kvs, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in scan reply", ErrBadFrame, len(p))
	}
	return kvs, nil
}

// Reply builds a response frame for reqID: a status byte followed by
// the op-specific body (value bytes, scan entries, stats JSON, or an
// error message for non-OK statuses).
func Reply(reqID uint64, st Status, body []byte) Frame {
	p := make([]byte, 0, 1+len(body))
	p = append(p, byte(st))
	p = append(p, body...)
	return Frame{Op: OpReply, ReqID: reqID, Payload: p}
}

// ParseReply splits a reply payload into its status and body.
func ParseReply(p []byte) (Status, []byte, error) {
	if len(p) < 1 {
		return 0, nil, fmt.Errorf("%w: empty reply payload", ErrBadFrame)
	}
	return Status(p[0]), p[1:], nil
}
