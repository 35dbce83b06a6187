package lsm

import (
	"time"

	"sealdb/internal/smr"
)

// LevelAmplification is one level's continuous write-amplification
// accounting: the logical bytes flushes/compactions have written into
// the level and read back out of it, and the level's share of overall
// WA (WriteBytes / UserBytes).
type LevelAmplification struct {
	Level      int     `json:"level"`
	Files      int     `json:"files"`
	Bytes      int64   `json:"bytes"`
	WriteBytes int64   `json:"write_bytes"`
	ReadBytes  int64   `json:"read_bytes"`
	WA         float64 `json:"wa"`
}

// CompactionAmplification is one compaction's (or flush's) own
// amplification: logical WA as OutputBytes/InputBytes and device-level
// AWA as DeviceBytes/HostBytes, both from exact per-compaction deltas.
type CompactionAmplification struct {
	ID          int     `json:"id"`
	FromLevel   int     `json:"from_level"`
	ToLevel     int     `json:"to_level"`
	InputBytes  int64   `json:"input_bytes"`
	OutputBytes int64   `json:"output_bytes"`
	HostBytes   int64   `json:"host_bytes"`
	DeviceBytes int64   `json:"device_bytes"`
	WA          float64 `json:"wa"`
	AWA         float64 `json:"awa"`
	Flush       bool    `json:"flush,omitempty"`
	TrivialMove bool    `json:"trivial_move,omitempty"`
}

// VlogAmplification is the value-log's share of write traffic when
// key–value separation is on: user-batch appends, GC rewrites, and
// the live/dead segment census the GC victim picker works from.
type VlogAmplification struct {
	AppendBytes int64 `json:"append_bytes"`
	GCRuns      int64 `json:"gc_runs"`
	GCBytes     int64 `json:"gc_bytes"`
	Segments    int   `json:"segments"`
	LiveBytes   int64 `json:"live_bytes"`
	DeadBytes   int64 `json:"dead_bytes"`
}

// AmplificationProfile is the /debug/amplification payload: the
// overall Table-I figures, the per-level continuous WA counters, the
// most recent per-compaction WA/AWA records, the value-log breakdown
// when key–value separation is on, and the fixed-band drive's
// media-cache state when the mode has one.
type AmplificationProfile struct {
	Overall     Amplification             `json:"overall"`
	Levels      []LevelAmplification      `json:"levels"`
	Compactions []CompactionAmplification `json:"recent_compactions"`
	Vlog        *VlogAmplification        `json:"vlog,omitempty"`
	MediaCache  *smr.MediaCacheStats      `json:"media_cache,omitempty"`
}

// recentCompactionWindow bounds the per-compaction records the DB
// keeps (and AmplificationProfile serves) to the most recent entries.
const recentCompactionWindow = 64

// SetCompactionObserver installs fn to see every flush, compaction
// and trivial-move record, in order, as it is made; the DB itself
// keeps only the last recentCompactionWindow. fn runs with the DB
// lock held and must not call back into the DB. Passing nil removes
// the observer.
func (d *DB) SetCompactionObserver(fn func(CompactionInfo)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compObserver = fn
}

// deviceMark is the device's busy clock and write counters when a
// flush or compaction starts. Compactions serialize under d.mu, so
// the deltas to a later mark are exactly that compaction's own cost.
type deviceMark struct {
	busy      time.Duration
	host, dev int64
}

func (d *DB) markDevice() deviceMark {
	ds := d.disk.Stats()
	return deviceMark{busy: ds.BusyTime, host: d.drive.HostBytesWritten(), dev: ds.BytesWritten}
}

// recordCompaction accounts one flush, compaction or trivial move: it
// charges the device time and bytes since start to the record, counts
// it in the metrics Stats reads, keeps it in the recent ring and
// hands it to the observer. Caller holds d.mu.
func (d *DB) recordCompaction(ci CompactionInfo, start deviceMark) {
	end := d.markDevice()
	ci.Latency = end.busy - start.busy
	ci.HostBytes, ci.DeviceBytes = end.host-start.host, end.dev-start.dev
	m := &d.metrics
	switch {
	case ci.Flush:
		m.flushes.Inc()
		m.flushBytes.Add(ci.OutputBytes)
		m.flushLatency.Observe(int64(ci.Latency))
	case ci.TrivialMove:
		m.trivialMoves.Inc()
	default:
		m.compactions.Inc()
		m.compactionReadBytes.Add(ci.InputBytes)
		m.compactionWriteBytes.Add(ci.OutputBytes)
		m.compactionLatency.Observe(int64(ci.Latency))
	}
	m.levelWriteBytes[ci.ToLevel].Add(ci.OutputBytes)

	ca := CompactionAmplification{
		ID: ci.ID, FromLevel: ci.FromLevel, ToLevel: ci.ToLevel,
		InputBytes: ci.InputBytes, OutputBytes: ci.OutputBytes,
		HostBytes: ci.HostBytes, DeviceBytes: ci.DeviceBytes,
		Flush: ci.Flush, TrivialMove: ci.TrivialMove,
	}
	if ci.InputBytes > 0 {
		ca.WA = float64(ci.OutputBytes) / float64(ci.InputBytes)
	}
	if ci.HostBytes > 0 {
		ca.AWA = float64(ci.DeviceBytes) / float64(ci.HostBytes)
	}
	d.recentComps[d.compRecords%recentCompactionWindow] = ca
	d.compRecords++
	if d.compObserver != nil {
		d.compObserver(ci)
	}
}

// AmplificationProfile reports the continuous amplification
// accounting. Do not call while holding d.mu (it takes it).
func (d *DB) AmplificationProfile() AmplificationProfile {
	p := AmplificationProfile{Overall: d.Amplification()}
	for _, li := range d.LevelProfile() {
		la := LevelAmplification{
			Level: li.Level, Files: li.Files, Bytes: li.Bytes,
			WriteBytes: d.metrics.levelWriteBytes[li.Level].Value(),
			ReadBytes:  d.metrics.levelReadBytes[li.Level].Value(),
		}
		if p.Overall.UserBytes > 0 {
			la.WA = float64(la.WriteBytes) / float64(p.Overall.UserBytes)
		}
		p.Levels = append(p.Levels, la)
	}

	d.mu.Lock()
	n := min(d.compRecords, recentCompactionWindow)
	p.Compactions = make([]CompactionAmplification, 0, n)
	for i := d.compRecords - n; i < d.compRecords; i++ {
		p.Compactions = append(p.Compactions, d.recentComps[i%recentCompactionWindow])
	}
	if d.cfg.vlogEnabled() {
		p.Vlog = &VlogAmplification{
			AppendBytes: d.metrics.vlogAppendBytes.Value(),
			GCRuns:      d.metrics.vlogGCRuns.Value(),
			GCBytes:     d.metrics.vlogGCRelocated.Value(),
		}
		p.Vlog.LiveBytes, p.Vlog.DeadBytes, p.Vlog.Segments = d.vlog.tab.Totals()
	}
	d.mu.Unlock()

	if fbd, ok := smr.Base(d.drive).(*smr.FixedBandDrive); ok {
		mc := fbd.MediaCacheStats()
		p.MediaCache = &mc
	}
	return p
}
