package main

import (
	"bytes"
	"fmt"
	"time"

	"sealdb/internal/sealclient"
)

// do issues one operation through cl and checks its result: every Get returns an
// intact value embedding the requested key; every Scan returns intact
// values under strictly ascending keys from the start key on, with no
// key of the loaded range missing, and stops short of its limit only
// when it ran past the loaded range.
func do(cl *sealclient.Client, o op, records int64) error {
	switch o.kind {
	case opRead:
		v, err := cl.Get(o.key)
		if err != nil {
			return fmt.Errorf("get %s: %w", o.key, err)
		}
		return checkValue(o.key, v)
	case opWrite:
		if err := cl.Put(o.key, o.val); err != nil {
			return fmt.Errorf("put %s: %w", o.key, err)
		}
		return nil
	}
	kvs, err := cl.Scan(o.key, o.limit)
	if err != nil {
		return fmt.Errorf("scan %s: %w", o.key, err)
	}
	return checkScan(o, kvs, records)
}

func checkScan(o op, kvs []sealclient.KV, records int64) error {
	if len(kvs) > o.limit {
		return fmt.Errorf("scan %s: %d entries for limit %d", o.key, len(kvs), o.limit)
	}
	if len(kvs) < o.limit && o.index+int64(len(kvs)) < records {
		return fmt.Errorf("scan %s: %d entries for limit %d inside the loaded range", o.key, len(kvs), o.limit)
	}
	prev := o.key
	for j, kv := range kvs {
		if j == 0 && bytes.Compare(kv.Key, o.key) < 0 || j > 0 && bytes.Compare(kv.Key, prev) <= 0 {
			return fmt.Errorf("scan %s: key %q out of order", o.key, kv.Key)
		}
		if want := o.index + int64(j); want < records {
			if idx, ok := parseKey(kv.Key); !ok || idx != want {
				return fmt.Errorf("scan %s: entry %d is %q, want record %d", o.key, j, kv.Key, want)
			}
		}
		if err := checkValue(kv.Key, kv.Value); err != nil {
			return fmt.Errorf("scan %s: %w", o.key, err)
		}
		prev = kv.Key
	}
	return nil
}

// clientResult is what one client did in one slice.
type clientResult struct {
	samples   [numOpKinds]sampleBuf // wall ns per call, by kind
	attempted int64
	failed    int64
	firstErr  error
	genNS     int64 // time spent generating operations
	clientNS  int64 // summed call time
}

// runClient is one closed-loop caller on the shared client pool: it
// issues operations back to back until deadline. Every
// call is timed on the wall clock; one span per sampleEvery calls
// goes to spans (nil in untraced slices).
func runClient(cl *sealclient.Client, g *opGen, records int64, deadline time.Time, spans *spanLog, res *clientResult) {
	const sampleEvery = 4
	names := [numOpKinds]string{"client.get", "client.put", "client.scan"}
	t := time.Now()
	for n := 0; t.Before(deadline); n++ {
		o := g.next()
		t0 := time.Now()
		res.genNS += int64(t0.Sub(t))
		err := do(cl, o, records)
		t = time.Now()
		lat := t.Sub(t0)
		res.attempted++
		res.clientNS += int64(lat)
		res.samples[o.kind].add(int64(lat))
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
		if spans != nil && n%sampleEvery == 0 {
			spans.add(names[o.kind], t0, lat, 0, int64(len(o.key)+len(o.val)))
			t = time.Now() // keep span bookkeeping out of genNS
		}
	}
}

// sampleBuf stores latencies in fixed-size chunks, so recording never
// copies or doubles a buffer in the middle of a slice (which would
// also show in the process's peak RSS).
type sampleBuf struct {
	chunks [][]int64
	n      int64
}

const sampleChunk = 1 << 14

func (b *sampleBuf) add(v int64) {
	if n := len(b.chunks); n == 0 || len(b.chunks[n-1]) == sampleChunk {
		b.chunks = append(b.chunks, make([]int64, 0, sampleChunk))
	}
	last := &b.chunks[len(b.chunks)-1]
	*last = append(*last, v)
	b.n++
}

// appendTo appends every stored sample to dst.
func (b *sampleBuf) appendTo(dst []int64) []int64 {
	for _, c := range b.chunks {
		dst = append(dst, c...)
	}
	return dst
}
