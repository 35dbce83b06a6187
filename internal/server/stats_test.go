package server

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
)

// TestStatsPayloadFlatAcrossCompactions: the STATS reply carries
// counters, not compaction history, so its size does not grow with
// the number of flushes and compactions the store has run.
func TestStatsPayloadFlatAcrossCompactions(t *testing.T) {
	// Small SSTables make hundreds of compactions in under a second.
	cfg := lsm.Config{Mode: lsm.ModeSEALDB, Seed: 1, Geometry: lsm.ScaledGeometry(16*kv.KiB, 256*kv.MiB)}
	db, err := lsm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Conns: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	value := make([]byte, 200)
	// loadUntil writes random keys in-process until the store has made
	// at least n flush/compaction records, then returns the STATS size.
	loadUntil := func(n int64) int {
		for {
			st := db.Stats()
			if st.FlushCount+st.CompactionCount+st.TrivialMoves >= n {
				break
			}
			rng.Read(value)
			if err := db.Put([]byte(fmt.Sprintf("key%07d", rng.Intn(50000))), value); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	early := loadUntil(50)
	late := loadUntil(500)
	if late-early > 1024 {
		t.Errorf("STATS grew from %d B after 50 records to %d B after 500", early, late)
	}
}
