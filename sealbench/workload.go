package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"

	"sealdb/internal/ycsb"
)

// valueSize is the size of every value the benchmark writes.
const valueSize = 1024

// workload is one named traffic mix. The store is loaded with records
// keys, then clients draw operations by the proportions below with
// zipfian-distributed keys (YCSB's scrambled zipfian).
type workload struct {
	name string
	why  string
	// records is the number of keys loaded during set-up.
	records int64
	// Operation mix; the proportions sum to 1.
	readProp, updateProp, insertProp, scanProp float64
	// maxScan bounds a scan's length: each scan asks for 1..maxScan.
	maxScan int
	// valueThreshold is lsm.Config.ValueThreshold (0: no value log).
	valueThreshold int
	// compact runs CompactAll after the load and reads every key once
	// before timing, so the data sits in the block cache.
	compact bool
	// setups is how many times a trace-0 run builds the store from
	// scratch; setup_s is their median.
	setups int
}

var workloads = []workload{
	{
		name:     "read-hot",
		why:      "YCSB-C 100% zipfian Get over 1,500 records that fit the 2 MiB block cache: host cost of client, wire, server and lsm reads",
		records:  1500,
		readProp: 1,
		compact:  true,
		setups:   21,
	},
	{
		name:       "update-cold",
		why:        "YCSB-A 50% Get / 50% Put over 64 MiB, 32x the block cache: WAL, group commit, flush, set compaction and device reads",
		records:    65536,
		readProp:   0.5,
		updateProp: 0.5,
		setups:     3,
	},
	{
		name:           "scan-vlog",
		why:            "YCSB-E 95% Scan (1-100) / 5% insert over 64 MiB with every value in the value log: iterator vlog pointer chasing",
		records:        65536,
		scanProp:       0.95,
		insertProp:     0.05,
		maxScan:        100,
		valueThreshold: 512,
		setups:         3,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Operation kinds a client issues.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opScan
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"read", "write", "scan"}[k]
}

// keyLen is the length of every key: "user" plus 12 digits, the YCSB
// key shape.
const keyLen = 16

// appendKey formats record i as a key into dst.
func appendKey(dst []byte, i int64) []byte {
	dst = append(dst, "user"...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], i, 10)
	for n := len(d); n < keyLen-4; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// parseKey returns the record index of a benchmark key.
func parseKey(k []byte) (int64, bool) {
	if len(k) != keyLen || !bytes.HasPrefix(k, []byte("user")) {
		return 0, false
	}
	n, err := strconv.ParseInt(string(k[4:]), 10, 64)
	return n, err == nil
}

// Value layout: key | 8-byte version | pseudo-random filler | CRC-32C
// of everything before it. A value therefore proves which key it was
// written for and that no byte changed on the way back.
const (
	valVersionOff = keyLen
	valFillOff    = keyLen + 8
	valCRCOff     = valueSize - 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fillValue writes the value of (key, version) into dst, which must
// be valueSize long.
func fillValue(dst, key []byte, version uint64) {
	copy(dst, key)
	binary.LittleEndian.PutUint64(dst[valVersionOff:], version)
	x := version ^ 0x9e3779b97f4a7c15
	for _, c := range key {
		x = x*31 + uint64(c)
	}
	for off := valFillOff; off+8 <= valCRCOff; off += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[off:], z^(z>>31))
	}
	binary.LittleEndian.PutUint32(dst[valCRCOff:], crc32.Checksum(dst[:valCRCOff], crcTable))
}

// checkValue verifies that v is an intact value written for key.
func checkValue(key, v []byte) error {
	switch {
	case len(v) != valueSize:
		return fmt.Errorf("value of %q has %d bytes, want %d", key, len(v), valueSize)
	case !bytes.Equal(v[:keyLen], key):
		return fmt.Errorf("value of %q embeds key %q", key, v[:keyLen])
	case binary.LittleEndian.Uint32(v[valCRCOff:]) != crc32.Checksum(v[:valCRCOff], crcTable):
		return fmt.Errorf("value of %q fails its checksum", key)
	}
	return nil
}

// opGen draws one client's operations. Each client owns one, seeded
// from the run seed and the client index, so a seed fixes the inputs.
type opGen struct {
	w       workload
	rng     *rand.Rand
	zipf    *ycsb.ScrambledZipfian
	client  uint64
	version uint64
	// nextInsert is shared by all clients: inserts append new keys.
	nextInsert func() int64
	key        []byte
	val        []byte
}

func newOpGen(w workload, seed int64, client int, nextInsert func() int64) *opGen {
	return &opGen{
		w:          w,
		rng:        rand.New(rand.NewSource(seed*1000003 + int64(client))),
		zipf:       ycsb.NewScrambledZipfian(w.records),
		client:     uint64(client),
		nextInsert: nextInsert,
		key:        make([]byte, 0, keyLen),
		val:        make([]byte, valueSize),
	}
}

// op is one generated request. key and val alias the generator's
// buffers and are valid until the next call to next.
type op struct {
	kind  opKind
	index int64 // record index of key
	key   []byte
	val   []byte // writes only
	limit int    // scans only
}

func (g *opGen) next() op {
	p := g.rng.Float64()
	w := g.w
	var o op
	switch {
	case p < w.readProp:
		o.kind = opRead
		o.index = g.zipf.Next(g.rng)
	case p < w.readProp+w.updateProp:
		o.kind = opWrite
		o.index = g.zipf.Next(g.rng)
	case p < w.readProp+w.updateProp+w.insertProp:
		o.kind = opWrite
		o.index = g.nextInsert()
	default:
		o.kind = opScan
		o.index = g.zipf.Next(g.rng)
		o.limit = 1 + g.rng.Intn(w.maxScan)
	}
	g.key = appendKey(g.key[:0], o.index)
	o.key = g.key
	if o.kind == opWrite {
		g.version++
		fillValue(g.val, g.key, g.client<<48|g.version)
		o.val = g.val
	}
	return o
}
