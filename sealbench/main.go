// Command sealbench is the repository's end-to-end benchmark. For one
// named workload it loads a fresh SEALDB store, serves it with
// server.Serve on loopback TCP, and drives it in a closed loop through
// sealclient from two client goroutines on two pooled connections. It
// reads every layer from outside: it times calls into sealclient and,
// through a wrapper installed with lsm.Config.WrapDrive, into the
// emulated drive, and it reads the engine's and the Go runtime's
// public counters before and after each measured slice.
//
// Usage (from the repository root):
//
//	bash sealbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with every
// instrument off. With --trace 1 it alternates untraced and traced
// slices; the traced ones switch on client request tracing, the
// engine tracer and lock profiling, and yield the per-layer metrics
// and the tracing overhead. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a reported metric, its unit, and which direction
// is better ("higher" or "lower").
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are the user-visible metrics of a --trace 0 run, in
// the order BENCHMARK.json lists them.
var endToEndMetrics = []metricDef{
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"wa", "ratio", "lower"},
	{"space_amp", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics are the per-layer metrics of a --trace 1 run, in the
// order BENCHMARK.json lists them.
var layerMetrics = []metricDef{
	{"client.ops_per_s", "1/s", "higher"},
	{"client.op_p99_us", "us", "lower"},
	{"client.read_p50_us", "us", "lower"},
	{"client.read_p99_us", "us", "lower"},
	{"client.write_p50_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.scan_p50_us", "us", "lower"},
	{"client.scan_p99_us", "us", "lower"},
	{"wire.read_overhead_us", "us", "lower"},
	{"wire.write_overhead_us", "us", "lower"},
	{"wire.scan_overhead_us", "us", "lower"},
	{"wire.bytes_per_op", "B/op", "lower"},
	{"server.get_p50_us", "us", "lower"},
	{"server.get_p99_us", "us", "lower"},
	{"server.write_p50_us", "us", "lower"},
	{"server.write_p99_us", "us", "lower"},
	{"server.scan_p50_us", "us", "lower"},
	{"server.scan_p99_us", "us", "lower"},
	{"server.coalesce_wait_p99_us", "us", "lower"},
	{"server.writes_per_commit", "count", "higher"},
	{"lsm.db_mu_wait_share", "ratio", "lower"},
	{"lsm.db_mu_hold_us_per_op", "us", "lower"},
	{"lsm.stage_wal_append_dev_us", "us", "lower"},
	{"lsm.stage_memtable_dev_us", "us", "lower"},
	{"lsm.stage_read_level_0_dev_us", "us", "lower"},
	{"lsm.stage_read_level_1_dev_us", "us", "lower"},
	{"lsm.stage_read_level_2_dev_us", "us", "lower"},
	{"lsm.stage_read_level_3_dev_us", "us", "lower"},
	{"lsm.stage_read_level_4_dev_us", "us", "lower"},
	{"lsm.stage_read_level_5_dev_us", "us", "lower"},
	{"lsm.stage_read_level_6_dev_us", "us", "lower"},
	{"lsm.stage_compaction_stall_dev_us_p99", "us", "lower"},
	{"wal.records_per_write", "ratio", "lower"},
	{"wal.rotations_per_kop", "1/kop", "lower"},
	{"version.compactions_per_kop", "1/kop", "lower"},
	{"version.flushes_per_kop", "1/kop", "lower"},
	{"version.trivial_moves_per_kop", "1/kop", "lower"},
	{"version.compaction_write_bytes_per_user_byte", "ratio", "lower"},
	{"version.compaction_dev_ms_p50", "ms", "lower"},
	{"version.compaction_dev_ms_p99", "ms", "lower"},
	{"version.l0_files_max", "count", "lower"},
	{"sstable.cache_hit_ratio", "ratio", "higher"},
	{"sstable.bloom_negative_ratio", "ratio", "higher"},
	{"sstable.bloom_fp_ratio", "ratio", "lower"},
	{"dband.frag_index", "ratio", "lower"},
	{"dband.inserts_per_kop", "1/kop", "higher"},
	{"dband.fragment_mb", "MB", "lower"},
	{"storage.group_writes_per_kop", "1/kop", "lower"},
	{"smr.awa", "ratio", "lower"},
	{"platter.device_us_per_op", "us", "lower"},
	{"platter.seeks_per_op", "count", "lower"},
	{"platter.read_ops_per_op", "count", "lower"},
	{"platter.bytes_read_per_op", "B/op", "lower"},
	{"platter.bytes_written_per_user_byte", "ratio", "lower"},
	{"platter.read_dev_us_per_op", "us", "lower"},
	{"platter.write_dev_us_per_op", "us", "lower"},
	{"platter.host_ns_per_op", "ns", "lower"},
	{"vlog.reads_per_scan", "count", "lower"},
	{"vlog.appends_per_insert", "count", "lower"},
	{"vlog.append_bytes_per_user_byte", "ratio", "lower"},
	{"vlog.gc_relocated_bytes_per_kop", "B/kop", "lower"},
	{"goruntime.gc_cpu_share", "ratio", "lower"},
	{"goruntime.gc_cycles_per_kop", "1/kop", "lower"},
	{"goruntime.sched_latency_p99_us", "us", "lower"},
	{"ycsb.gen_ns_per_op", "ns", "lower"},
	{"trace.ops_per_s_ratio", "ratio", "higher"},
	{"trace.device_time_check", "ratio", "higher"},
	{"trace.spans", "count", "higher"},
}

// sliceLen is the wall time of one measured slice. Short enough that
// a run yields dozens of slices to take medians over, long enough that
// the slowest workload still puts more than ten calls beyond each
// slice's p99.
const sliceLen = 500 * time.Millisecond

// spanLimit bounds the spans a traced run keeps in memory.
const spanLimit = 200_000

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (the repository root).
var traceDir = filepath.Join(".bench_build", "traces")

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFacts records the machine and the inputs of a run.
type hostFacts struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Records     int64   `json:"records"`
	ValueSize   int     `json:"value_size"`
	Clients     int     `json:"clients"`
	Loop        string  `json:"loop"`
	Slices      int     `json:"slices"`
	SliceSecond float64 `json:"slice_seconds"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
}

func main() {
	name := flag.String("workload", "", "workload: read-hot, update-cold or scan-vlog")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured wall seconds")
	trace := flag.Int("trace", 0, "0: end-to-end run; 1: traced per-layer run")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fail(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	// Traced runs pair an untraced slice with each traced one; an even
	// slice count keeps the pairs whole.
	slices := int(time.Duration(*seconds) * time.Second / sliceLen)
	facts := hostFacts{
		Workload: w.name, Seed: *seed, Trace: *trace == 1, Records: w.records,
		ValueSize: valueSize, Clients: clients, Loop: "closed",
		Slices: slices, SliceSecond: sliceLen.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	fmt.Printf("# sealbench %s seed=%d trace=%d: %d records x %d B, %d closed-loop clients, %d x %v slices\n",
		w.name, *seed, *trace, w.records, valueSize, clients, slices, sliceLen)
	fmt.Printf("# %s\n", w.why)
	fmt.Printf("# host: GOMAXPROCS=%d nproc=%d %s %s/%s\n",
		facts.GOMAXPROCS, facts.NumCPU, facts.GoVersion, facts.GOOS, facts.GOARCH)

	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, slices, facts)
	} else {
		res, err = untracedRun(w, *seed, slices, facts)
	}
	if err != nil {
		fail(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sealbench:", err)
	os.Exit(2)
}

// gens builds one operation generator per client.
func gens(s *store, seed int64) []*opGen {
	out := make([]*opGen, clients)
	for i := range out {
		out[i] = newOpGen(s.w, seed, i, func() int64 { return s.nextInsert.Add(1) - 1 })
	}
	return out
}

// verify runs the engine's own consistency checks after the measured
// window (untimed).
func verify(s *store) error {
	if err := s.db.VerifyIntegrity(); err != nil {
		return fmt.Errorf("VerifyIntegrity: %w", err)
	}
	if err := s.db.VerifySurface(); err != nil {
		return fmt.Errorf("VerifySurface: %w", err)
	}
	return nil
}

// outcome totals the slices' attempts and failures and reports the
// first failure.
func outcome(all window, verr error) (attempted, failed int64, correct bool) {
	for _, r := range all {
		for i := range r.clients {
			c := &r.clients[i]
			attempted += c.attempted
			failed += c.failed
			if c.firstErr != nil {
				fmt.Fprintln(os.Stderr, "sealbench: op failed:", c.firstErr)
			}
		}
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "sealbench:", verr)
		failed++
	}
	return attempted, failed, failed == 0
}

func untracedRun(w workload, seed int64, slices int, facts hostFacts) (result, error) {
	s, setupCosts, err := setupStores(w, seed, w.setups, false, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	g := gens(s, seed)
	var all window
	for i := 0; i < slices; i++ {
		all = append(all, runSlice(s, g, sliceLen, false, nil))
	}
	verr := verify(s)
	attempted, failed, correct := outcome(all, verr)

	// Each windowed metric is the median over slices, so one slice
	// disturbed by the host does not move the run; the table also
	// shows the whole-window value and the spread across slices.
	perSlice := map[string][]float64{}
	for _, r := range all {
		v, _ := endToEnd(window{r})
		for k, x := range v {
			perSlice[k] = append(perSlice[k], x)
		}
	}
	whole, n := endToEnd(all)
	// The store's state metrics grow with the work done, and a
	// wall-clock window does more work on a quiet host than on a busy
	// one, so they are read at a fixed amount of work: once the window
	// has written as many values as the load did (or at its end, if it
	// writes fewer). Space amplification rises and falls with every
	// compaction, so it is the median of the slice-end readings up to
	// that point.
	cp := checkpoint(all, w.records)
	last := all[len(all)-1]
	state := map[string][]float64{
		"wa":          {all[cp].after.m.Gauges["sealdb_wa"], last.after.m.Gauges["sealdb_wa"]},
		"space_amp":   {median(perSlice["space_amp"][:cp+1]), whole["space_amp"], spread(perSlice["space_amp"][:cp+1])},
		"peak_rss_mb": {float64(all[cp].hostAfter.maxRSSKB) / 1024, float64(last.hostAfter.maxRSSKB) / 1024},
	}
	// setup_s is set-up CPU time (user+sys, all threads): the work a
	// set-up does, which the host's steal time does not inflate the
	// way it inflates wall time. The wall time is printed beside it.
	setups := map[string][]float64{}
	for _, c := range setupCosts {
		setups["setup_s"] = append(setups["setup_s"], c.cpu.Seconds())
		setups["setup_wall_s"] = append(setups["setup_wall_s"], c.wall.Seconds())
	}
	errRate := ratioOf(float64(failed), float64(attempted), 1)

	fmt.Printf("\n%-18s %-6s %12s %12s %8s %10s\n", "metric", "unit", "value", "window", "spread", "n")
	// Printed beside the bounded metrics: throughput and the tail,
	// which move with the host's load as much as with the program;
	// device time (0 on read-hot, where every block is cached);
	// per-kind latencies (absent where a workload issues no such
	// call); and the error rate.
	rows := append([]metricDef(nil), endToEndMetrics...)
	rows = append(rows,
		metricDef{"setup_wall_s", "s", "lower"},
		metricDef{"ops_per_s", "1/s", "higher"},
		metricDef{"op_p99_us", "us", "lower"},
		metricDef{"device_us_per_op", "us", "lower"})
	for _, k := range []opKind{opRead, opWrite, opScan} {
		for _, q := range []string{"p50", "p99"} {
			rows = append(rows, metricDef{fmt.Sprintf("%s_%s_us", k, q), "us", "lower"})
		}
	}
	rows = append(rows, metricDef{"error_rate", "ratio", "lower"})
	values := map[string]float64{}
	report := map[string]any{}
	for _, m := range rows {
		var val, wholeV, spr float64
		var count int
		switch {
		case setups[m.name] != nil:
			x := setups[m.name]
			val, spr, count = median(x), spread(x), len(x)
			wholeV = val
		case state[m.name] != nil:
			x := state[m.name]
			val, wholeV, count = x[0], x[1], cp+1
			if len(x) > 2 {
				spr = x[2]
			}
		case m.name == "error_rate":
			val, wholeV, count = errRate.Value, errRate.Value, int(attempted)
		case perSlice[m.name] != nil:
			val, spr = median(perSlice[m.name]), spread(perSlice[m.name])
			wholeV, count = whole[m.name], n[m.name]
			if count == 0 {
				count = int(all.ops()) // a per-op ratio: its base
			}
		default:
			continue // absent: the workload cannot produce it
		}
		values[m.name] = val
		report[m.name] = map[string]any{"value": val, "unit": m.unit, "window": wholeV, "spread": spr, "n": count}
		fmt.Printf("%-18s %-6s %12.4f %12.4f %7.1f%% %10d\n", m.name, m.unit, val, wholeV, 100*spr, count)
	}
	fmt.Printf("\nvalue = median over %d slices; setup_*: over %d set-ups; wa, space_amp, peak_rss_mb: at the end of slice %d, when the window had written %d values\n",
		len(all), len(setupCosts), cp+1, written(all[:cp+1]))
	fmt.Println("window = whole measured window (state metrics: its end); spread = (Q3-Q1)/median over slices or set-ups; n = samples, ops or slices")
	report["setup_runs"] = setups
	report["slices"] = perSlice
	printReport(facts, report)

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

func tracedRun(w workload, seed int64, slices int, facts hostFacts) (result, error) {
	spans := newSpanLog(spanLimit)
	s, _, err := setupStores(w, seed, 1, true, spans)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	g := gens(s, seed)
	var all, plain, traced window
	for i := 0; i < slices; i++ {
		on := i%2 == 1
		r := runSlice(s, g, sliceLen, on, spans)
		all = append(all, r)
		if on {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	verr := verify(s)
	attempted, failed, correct := outcome(all, verr)

	layer := perLayer(traced)
	plainRate := plain.ops() / plain.seconds()
	tracedRate := traced.ops() / traced.seconds()
	layer["trace.ops_per_s_ratio"] = ratioOf(tracedRate, plainRate, 1)
	kept, dropped := spans.count()
	layer["trace.spans"] = ratio{Value: float64(kept), Num: float64(kept), Base: float64(kept) + float64(dropped)}

	path := filepath.Join(traceDir, w.name+".jsonl")
	if err := spans.writeFile(path, s.db.Events()); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	check := layer["trace.device_time_check"]
	if check.Base > 0 && (check.Value < 0.99 || check.Value > 1.01) {
		fmt.Fprintf(os.Stderr, "sealbench: drive wrapper summed %.0f ns of device time against a %.0f ns busy-time delta\n", check.Num, check.Base)
		correct = false
		failed++
	}
	if awa := layer["smr.awa"].Value; awa != 1 {
		fmt.Fprintf(os.Stderr, "sealbench: AWA %v on the dynamic-band drive, want exactly 1\n", awa)
		correct = false
		failed++
	}

	fmt.Printf("\n%-46s %-6s %14s %14s %14s\n", "metric", "unit", "value", "numerator", "base")
	report := map[string]any{}
	for _, m := range layerMetrics {
		r := layer[m.name]
		report[m.name] = map[string]any{"value": r.Value, "unit": m.unit, "num": r.Num, "base": r.Base}
		fmt.Printf("%-46s %-6s %14.4f %14.4g %14.4g\n", m.name, m.unit, r.Value, r.Num, r.Base)
	}
	fmt.Printf("\ntraced slices: %.0f ops/s; untraced slices: %.0f ops/s; spans: %d kept, %d dropped, written to %s\n",
		tracedRate, plainRate, kept, dropped, path)
	printReport(facts, report)

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{Value: layer[m.name].Value, Unit: m.unit}
	}
	return res, nil
}

// printReport prints the full result with the host facts as one
// "report" JSON line above the final result line.
func printReport(facts hostFacts, metrics map[string]any) {
	b, _ := json.Marshal(map[string]any{"host": facts, "metrics": metrics})
	fmt.Println("report " + strings.TrimSpace(string(b)))
}
