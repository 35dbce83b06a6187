package main

import (
	"strings"
	"testing"

	"sealdb/internal/sealclient"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 7, 65535, 999999999999} {
		k := appendKey(nil, i)
		if len(k) != keyLen {
			t.Fatalf("key %q has %d bytes", k, len(k))
		}
		if got, ok := parseKey(k); !ok || got != i {
			t.Errorf("parseKey(%q) = %d, %v", k, got, ok)
		}
	}
	if _, ok := parseKey([]byte("user12")); ok {
		t.Error("short key parsed")
	}
}

func TestCheckValueCatchesDamage(t *testing.T) {
	key := appendKey(nil, 42)
	v := make([]byte, valueSize)
	fillValue(v, key, 3)
	if err := checkValue(key, v); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	if err := checkValue(appendKey(nil, 43), v); err == nil {
		t.Error("value returned for another key accepted")
	}
	v[500] ^= 1
	if err := checkValue(key, v); err == nil {
		t.Error("flipped bit accepted")
	}
	if err := checkValue(key, v[:valueSize-1]); err == nil {
		t.Error("short value accepted")
	}
}

// scanOf builds the reply a correct store gives for records
// from..from+n-1.
func scanOf(from int64, n int) []sealclient.KV {
	var out []sealclient.KV
	for i := from; i < from+int64(n); i++ {
		k := appendKey(nil, i)
		v := make([]byte, valueSize)
		fillValue(v, k, 0)
		out = append(out, sealclient.KV{Key: k, Value: v})
	}
	return out
}

func TestCheckScan(t *testing.T) {
	const records = 100
	o := op{kind: opScan, index: 10, key: appendKey(nil, 10), limit: 5}
	if err := checkScan(o, scanOf(10, 5), records); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	// Running off the end of the loaded range may return fewer.
	end := op{kind: opScan, index: 98, key: appendKey(nil, 98), limit: 5}
	if err := checkScan(end, scanOf(98, 2), records); err != nil {
		t.Errorf("scan past the loaded range rejected: %v", err)
	}
	gap := append(scanOf(10, 2), scanOf(13, 3)...)
	cases := map[string][]sealclient.KV{
		"short":     scanOf(10, 4),
		"too long":  scanOf(10, 6),
		"gap":       gap,
		"wrong key": scanOf(11, 5),
		"reordered": append(scanOf(11, 1), append(scanOf(10, 1), scanOf(12, 3)...)...),
	}
	for name, kvs := range cases {
		if err := checkScan(o, kvs, records); err == nil {
			t.Errorf("%s scan accepted", name)
		}
	}
	bad := scanOf(10, 5)
	bad[2].Value[100] ^= 1
	if err := checkScan(o, bad, records); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt value in scan: %v", err)
	}
}
