package main

import (
	"fmt"
	"math"
	"sort"

	"sealdb/internal/obs"
)

// window is a set of slices read as one measurement: counter deltas
// and samples add up across its slices.
type window []*sliceResult

func (w window) ops() float64 {
	var n int64
	for _, r := range w {
		n += r.ops()
	}
	return float64(n)
}

func (w window) seconds() float64 {
	var s float64
	for _, r := range w {
		s += r.wall.Seconds()
	}
	return s
}

func (w window) sum(f func(r *sliceResult) float64) float64 {
	var s float64
	for _, r := range w {
		s += f(r)
	}
	return s
}

// counter is the summed delta of an engine counter.
func (w window) counter(name string) float64 {
	return w.sum(func(r *sliceResult) float64 {
		return float64(r.after.m.Counters[name] - r.before.m.Counters[name])
	})
}

// gauge is the summed delta of a cumulative engine gauge.
func (w window) gauge(name string) float64 {
	return w.sum(func(r *sliceResult) float64 {
		return r.after.m.Gauges[name] - r.before.m.Gauges[name]
	})
}

// gaugeEnd is a gauge's value at the end of the last slice.
func (w window) gaugeEnd(name string) float64 {
	return w[len(w)-1].after.m.Gauges[name]
}

// hist merges the per-slice deltas of an engine histogram.
func (w window) hist(name string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	counts := map[int64]uint64{}
	for _, r := range w {
		d := histDelta(r.before.m.Histograms[name], r.after.m.Histograms[name])
		out.Count += d.Count
		out.Sum += d.Sum
		if d.Max > out.Max {
			out.Max = d.Max
		}
		for _, b := range d.Buckets {
			counts[b.UpperBound] += b.Count
		}
	}
	for ub, n := range counts {
		out.Buckets = append(out.Buckets, obs.Bucket{UpperBound: ub, Count: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].UpperBound < out.Buckets[j].UpperBound })
	return out
}

// samples gathers the window's call latencies of the given kinds,
// sorted.
func (w window) samples(kinds ...opKind) []int64 {
	var out []int64
	for _, r := range w {
		out = append(out, r.samples(kinds...)...)
	}
	return sortedCopy(out)
}

func (w window) clientSum(f func(c *clientResult) int64) float64 {
	return w.sum(func(r *sliceResult) float64 {
		var n int64
		for i := range r.clients {
			n += f(&r.clients[i])
		}
		return float64(n)
	})
}

// meanUS is the mean of the window's call latencies of one kind, µs.
func (w window) meanUS(k opKind) float64 {
	var sum, n float64
	for _, r := range w {
		for _, v := range r.samples(k) {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

// endToEnd computes the user-visible metrics of a window of untraced
// slices. Percentiles are exact nearest-rank picks over every call in
// the window; n holds each percentile's sample count.
func endToEnd(w window) (vals map[string]float64, n map[string]int) {
	ops := w.ops()
	all := w.samples(opRead, opWrite, opScan)
	vals = map[string]float64{
		"ops_per_s":        ops / w.seconds(),
		"op_p50_us":        float64(percentile(all, 0.50)) / 1e3,
		"op_p99_us":        float64(percentile(all, 0.99)) / 1e3,
		"device_us_per_op": w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.BusyTime - r.before.disk.BusyTime) }) / ops / 1e3,
		"cpu_us_per_op":    w.sum(func(r *sliceResult) float64 { return float64(r.hostAfter.cpuNS - r.hostBefore.cpuNS) }) / ops / 1e3,
		"allocs_per_op":    w.sum(func(r *sliceResult) float64 { return float64(r.hostAfter.allocs - r.hostBefore.allocs) }) / ops,
		// Space amplification rises and falls with every compaction;
		// this is its value at the end of the window.
		"space_amp": w.gaugeEnd("sealdb_space_amplification"),
	}
	n = map[string]int{"op_p50_us": len(all), "op_p99_us": len(all)}
	for _, k := range []opKind{opRead, opWrite, opScan} {
		s := w.samples(k)
		if len(s) == 0 {
			continue // a metric a workload cannot produce is absent
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			name := fmt.Sprintf("%s_%s_us", k, q.name)
			vals[name] = float64(percentile(s, q.q)) / 1e3
			n[name] = len(s)
		}
	}
	return vals, n
}

// perLayer computes the per-layer metrics of a window of traced
// slices. Each rate carries its base (see ratio).
func perLayer(w window) map[string]ratio {
	ops := w.ops()
	writes := float64(len(w.samples(opWrite)))
	scans := float64(len(w.samples(opScan)))
	userBytes := w.counter("sealdb_write_bytes_total")
	plain := func(v float64) ratio { return ratio{Value: v, Num: v, Base: 1} }
	histQ := func(name string, q, scale float64) ratio {
		h := w.hist(name)
		return ratio{Value: float64(h.Quantile(q)) / scale, Num: float64(h.Quantile(q)), Base: float64(h.Count)}
	}
	histAvg := func(name string, scale float64) ratio {
		h := w.hist(name)
		return ratio{Value: histMean(h) / scale, Num: float64(h.Sum), Base: float64(h.Count)}
	}
	overhead := func(k opKind, server string) ratio {
		if len(w.samples(k)) == 0 {
			return ratio{}
		}
		srv := w.hist(server)
		v := w.meanUS(k) - histMean(srv)/1e3
		return ratio{Value: v, Num: v, Base: float64(len(w.samples(k)))}
	}
	busy := w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.BusyTime - r.before.disk.BusyTime) })
	driveOf := func(f func(d driveTotals) int64) float64 {
		return w.sum(func(r *sliceResult) float64 { return float64(f(r.after.drive.sub(r.before.drive))) })
	}
	drive := driveOf(func(d driveTotals) int64 { return d.readDevNS + d.writeDevNS })
	l0 := 0
	for _, r := range w {
		if r.l0Max > l0 {
			l0 = r.l0Max
		}
	}

	m := map[string]ratio{
		// sealclient / wire
		"wire.read_overhead_us":  overhead(opRead, "sealdb_server_get_latency_ns"),
		"wire.write_overhead_us": overhead(opWrite, "sealdb_server_write_latency_ns"),
		"wire.scan_overhead_us":  overhead(opScan, "sealdb_server_scan_latency_ns"),
		"wire.bytes_per_op":      ratioOf(w.counter("sealdb_server_bytes_in_total")+w.counter("sealdb_server_bytes_out_total"), ops, 1),

		// server
		"server.get_p50_us":           histQ("sealdb_server_get_latency_ns", 0.50, 1e3),
		"server.get_p99_us":           histQ("sealdb_server_get_latency_ns", 0.99, 1e3),
		"server.write_p50_us":         histQ("sealdb_server_write_latency_ns", 0.50, 1e3),
		"server.write_p99_us":         histQ("sealdb_server_write_latency_ns", 0.99, 1e3),
		"server.scan_p50_us":          histQ("sealdb_server_scan_latency_ns", 0.50, 1e3),
		"server.scan_p99_us":          histQ("sealdb_server_scan_latency_ns", 0.99, 1e3),
		"server.coalesce_wait_p99_us": histQ("sealdb_server_coalesce_wait_ns", 0.99, 1e3),
		"server.writes_per_commit": func() ratio {
			h := w.hist("sealdb_server_coalesced_group_requests")
			return ratioOf(float64(h.Sum), float64(h.Count), 1)
		}(),

		// lsm
		"lsm.db_mu_wait_share": ratioOf(
			w.sum(func(r *sliceResult) float64 { return float64(r.after.dbMu.TotalWaitNS - r.before.dbMu.TotalWaitNS) }),
			w.clientSum(func(c *clientResult) int64 { return c.clientNS }), 1),
		"lsm.db_mu_hold_us_per_op": ratioOf(
			w.sum(func(r *sliceResult) float64 { return float64(r.after.dbMu.TotalHoldNS - r.before.dbMu.TotalHoldNS) }),
			ops, 1e-3),
		"lsm.stage_wal_append_dev_us":           histAvg("sealdb_stage_wal_append_ns", 1e3),
		"lsm.stage_memtable_dev_us":             histAvg("sealdb_stage_memtable_ns", 1e3),
		"lsm.stage_compaction_stall_dev_us_p99": histQ("sealdb_stage_compaction_stall_ns", 0.99, 1e3),

		// wal / memtable: one WAL record per engine commit
		"wal.records_per_write": ratioOf(float64(w.hist("sealdb_write_latency_ns").Count), w.counter("sealdb_writes_total"), 1),
		"wal.rotations_per_kop": ratioOf(w.counter("sealdb_wal_rotations_total"), ops, 1e3),

		// version / compaction
		"version.compactions_per_kop":                  ratioOf(w.counter("sealdb_compaction_total"), ops, 1e3),
		"version.flushes_per_kop":                      ratioOf(w.counter("sealdb_flush_total"), ops, 1e3),
		"version.trivial_moves_per_kop":                ratioOf(w.counter("sealdb_trivial_move_total"), ops, 1e3),
		"version.compaction_write_bytes_per_user_byte": ratioOf(w.counter("sealdb_compaction_write_bytes_total"), userBytes, 1),
		"version.compaction_dev_ms_p50":                histQ("sealdb_compaction_latency_ns", 0.50, 1e6),
		"version.compaction_dev_ms_p99":                histQ("sealdb_compaction_latency_ns", 0.99, 1e6),
		"version.l0_files_max":                         plain(float64(l0)),

		// sstable / block cache
		"sstable.cache_hit_ratio": ratioOf(w.gauge("sealdb_cache_hits"), w.gauge("sealdb_cache_hits")+w.gauge("sealdb_cache_misses"), 1),
		"sstable.bloom_negative_ratio": ratioOf(w.gauge("sealdb_bloom_negatives"),
			w.gauge("sealdb_bloom_negatives")+w.gauge("sealdb_bloom_true_positives")+w.gauge("sealdb_bloom_false_positives"), 1),
		"sstable.bloom_fp_ratio": ratioOf(w.gauge("sealdb_bloom_false_positives"),
			w.gauge("sealdb_bloom_false_positives")+w.gauge("sealdb_bloom_negatives"), 1),

		// dband / storage
		"dband.frag_index":             plain(w.gaugeEnd("sealdb_band_frag_index")),
		"dband.inserts_per_kop":        ratioOf(w.gauge("sealdb_dband_inserts"), ops, 1e3),
		"dband.fragment_mb":            plain(w.gaugeEnd("sealdb_dband_fragment_bytes") / (1 << 20)),
		"storage.group_writes_per_kop": ratioOf(w.gauge("sealdb_storage_group_writes"), ops, 1e3),

		// smr / platter
		"smr.awa":                             plain(w.gaugeEnd("sealdb_awa")),
		"platter.device_us_per_op":            ratioOf(busy, ops, 1e-3),
		"platter.seeks_per_op":                ratioOf(w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.Seeks - r.before.disk.Seeks) }), ops, 1),
		"platter.read_ops_per_op":             ratioOf(w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.ReadOps - r.before.disk.ReadOps) }), ops, 1),
		"platter.bytes_read_per_op":           ratioOf(w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.BytesRead - r.before.disk.BytesRead) }), ops, 1),
		"platter.bytes_written_per_user_byte": ratioOf(w.sum(func(r *sliceResult) float64 { return float64(r.after.disk.BytesWritten - r.before.disk.BytesWritten) }), userBytes, 1),
		"platter.read_dev_us_per_op":          ratioOf(driveOf(func(d driveTotals) int64 { return d.readDevNS }), ops, 1e-3),
		"platter.write_dev_us_per_op":         ratioOf(driveOf(func(d driveTotals) int64 { return d.writeDevNS }), ops, 1e-3),
		"platter.host_ns_per_op":              ratioOf(driveOf(func(d driveTotals) int64 { return d.readHostNS + d.writeHostNS }), ops, 1),

		// vlog
		"vlog.reads_per_scan":             ratioOf(w.counter("sealdb_vlog_reads_total"), scans, 1),
		"vlog.appends_per_insert":         ratioOf(w.counter("sealdb_vlog_appends_total"), writes, 1),
		"vlog.append_bytes_per_user_byte": ratioOf(w.counter("sealdb_vlog_append_bytes_total"), userBytes, 1),
		"vlog.gc_relocated_bytes_per_kop": ratioOf(w.counter("sealdb_vlog_gc_relocated_bytes_total"), ops, 1e3),

		// Go runtime
		"goruntime.gc_cpu_share": ratioOf(
			w.sum(func(r *sliceResult) float64 { return r.hostAfter.gcCPU - r.hostBefore.gcCPU }),
			w.sum(func(r *sliceResult) float64 { return r.hostAfter.totalCPU - r.hostBefore.totalCPU }), 1),
		"goruntime.gc_cycles_per_kop": ratioOf(
			w.sum(func(r *sliceResult) float64 { return float64(r.hostAfter.gcCycles - r.hostBefore.gcCycles) }), ops, 1e3),
		"goruntime.sched_latency_p99_us": schedP99(w),

		// ycsb: the benchmark's own generator
		"ycsb.gen_ns_per_op": ratioOf(w.clientSum(func(c *clientResult) int64 { return c.genNS }), ops, 1),

		// Device-time cross-check: the wrapper's summed durations
		// against the platter's busy-time delta; must be 1 within 1%.
		"trace.device_time_check": ratioOf(drive, busy, 1),
	}
	for l := 0; l < 7; l++ {
		m[fmt.Sprintf("lsm.stage_read_level_%d_dev_us", l)] = histAvg(fmt.Sprintf("sealdb_stage_read_level_%d_ns", l), 1e3)
	}
	all := w.samples(opRead, opWrite, opScan)
	m["client.ops_per_s"] = ratioOf(ops, w.seconds(), 1)
	m["client.op_p99_us"] = ratio{Value: float64(percentile(all, 0.99)) / 1e3, Num: float64(percentile(all, 0.99)), Base: float64(len(all))}
	for _, k := range []opKind{opRead, opWrite, opScan} {
		s := w.samples(k)
		m[fmt.Sprintf("client.%s_p50_us", k)] = ratio{Value: float64(percentile(s, 0.50)) / 1e3, Num: float64(percentile(s, 0.50)), Base: float64(len(s))}
		m[fmt.Sprintf("client.%s_p99_us", k)] = ratio{Value: float64(percentile(s, 0.99)) / 1e3, Num: float64(percentile(s, 0.99)), Base: float64(len(s))}
	}
	return m
}

// schedP99 is the p99 goroutine scheduling latency over the window,
// from the runtime's cumulative histogram deltas (bucket upper bound,
// the runtime's own resolution).
func schedP99(w window) ratio {
	var counts []uint64
	var bounds []float64
	for _, r := range w {
		a, b := r.hostAfter.schedLats, r.hostBefore.schedLats
		if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
			continue
		}
		if counts == nil {
			counts = make([]uint64, len(a.Counts))
			bounds = a.Buckets
		}
		for i := range a.Counts {
			counts[i] += a.Counts[i] - b.Counts[i]
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return ratio{}
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			ub := bounds[i+1]
			if math.IsInf(ub, 1) {
				ub = bounds[i]
			}
			return ratio{Value: ub * 1e6, Num: ub * 1e6, Base: float64(total)}
		}
	}
	return ratio{}
}
