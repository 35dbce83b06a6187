package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sealdb/internal/obs"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call. Times are host wall nanoseconds since the
// run's epoch; devNS is the simulated device time the call reported,
// where the layer has one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	DevNS  int64  `json:"dev_ns,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// spanLog keeps a traced run's spans in memory, bounded, and writes
// them out once the run is over so file I/O never lands inside a
// measured slice. A nil *spanLog records nothing.
type spanLog struct {
	epoch  time.Time
	limit  int
	nextID atomic.Uint64
	parent atomic.Uint64 // the slice span new spans hang under

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

// add records a span that started at t0 and lasted dur.
func (l *spanLog) add(name string, t0 time.Time, dur time.Duration, devNS, nbytes int64) uint64 {
	if l == nil {
		return 0
	}
	id := l.nextID.Add(1)
	s := span{
		ID: id, Parent: l.parent.Load(), Name: name,
		Start: int64(t0.Sub(l.epoch)), Dur: int64(dur), DevNS: devNS, Bytes: nbytes,
	}
	l.mu.Lock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
	return id
}

// open starts a parent span (a measured slice) and returns a function
// that closes it.
func (l *spanLog) open(name string) func() {
	if l == nil {
		return func() {}
	}
	t0 := time.Now()
	id := l.nextID.Add(1)
	prev := l.parent.Swap(id)
	return func() {
		l.parent.Store(prev)
		l.mu.Lock()
		l.spans = append(l.spans, span{ID: id, Parent: prev, Name: name,
			Start: int64(t0.Sub(l.epoch)), Dur: int64(time.Since(t0))})
		l.mu.Unlock()
	}
}

// count returns how many spans are held and how many the bound
// dropped.
func (l *spanLog) count() (kept int, dropped int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans), l.dropped
}

// writeFile writes the spans as JSON lines, followed by the engine's
// own journaled span trees (device-clock timestamps, one object per
// event), to path.
func (l *spanLog) writeFile(path string, engine []obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	for i := range engine {
		rec := struct {
			Clock string `json:"clock"`
			obs.Event
		}{"device", engine[i]}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
