package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
)

// ---------------------------------------------------------------------------
// Figures 2 and 11 — per-compaction data layout

// LayoutPoint is one SSTable write of one compaction: the data behind
// the scatter plots of Figures 2 (LevelDB) and 11 (SEALDB).
type LayoutPoint struct {
	Compaction int64   `json:"compaction"`
	OffsetMB   float64 `json:"offset_mb"`
	LengthKB   float64 `json:"length_kb"`
}

// LayoutResult summarizes a layout trace.
type LayoutResult struct {
	Store  string
	Points []LayoutPoint
	// Compactions is the number of set-producing merges observed.
	Compactions int
	// SpanMB is the device address range the compaction writes
	// covered (Figure 2 shows LevelDB spanning the whole first 10 GB;
	// Figure 11 shows SEALDB packing into a small prefix).
	SpanMB float64
	// FootprintMB is the device space occupied at the end.
	FootprintMB float64
	// MeanExtentsPerCompaction counts discontiguous write runs per
	// compaction (1.0 = perfectly sequential sets).
	MeanExtentsPerCompaction float64
}

// RunLayout loads a store randomly and collects the physical address
// of every compaction output SSTable (the paper traced these with
// "Ext4 Magic"); mode selects Figure 2 (ModeLevelDB) or 11
// (ModeSEALDB).
func RunLayout(o Options, mode lsm.Mode) (*LayoutResult, error) {
	db, merges, err := o.loadStore(mode)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	res := &LayoutResult{Store: mode.String()}
	var minOff, maxOff int64 = 1 << 62, 0
	var extents int
	for _, ci := range merges {
		if len(ci.OutputPlacements) == 0 {
			continue
		}
		res.Compactions++
		var lastEnd int64 = -1
		for _, ext := range ci.OutputPlacements {
			res.Points = append(res.Points, LayoutPoint{
				Compaction: int64(ci.ID),
				OffsetMB:   float64(ext.Off) / float64(kv.MiB),
				LengthKB:   float64(ext.Len) / float64(kv.KiB),
			})
			if ext.Off < minOff {
				minOff = ext.Off
			}
			if ext.End() > maxOff {
				maxOff = ext.End()
			}
			if ext.Off != lastEnd {
				extents++
			}
			lastEnd = ext.End()
		}
	}
	if maxOff > minOff {
		res.SpanMB = float64(maxOff-minOff) / float64(kv.MiB)
	}
	if res.Compactions > 0 {
		res.MeanExtentsPerCompaction = float64(extents) / float64(res.Compactions)
	}
	// Footprint: how much device address space the store occupies.
	if dbm := db.Device().DBand; dbm != nil {
		res.FootprintMB = float64(dbm.Frontier()) / float64(kv.MiB)
	} else if fs := db.Device().ExtFS; fs != nil {
		res.FootprintMB = float64(fs.HighWater()) / float64(kv.MiB)
	}
	return res, nil
}

// PrintLayout renders a layout summary.
func PrintLayout(w io.Writer, fig string, r *LayoutResult) {
	fprintf(w, "%s (%s): %d compactions, writes span %.1f MB, footprint %.1f MB, %.2f extents/compaction\n",
		fig, r.Store, r.Compactions, r.SpanMB, r.FootprintMB, r.MeanExtentsPerCompaction)
}

// WriteLayoutCSV dumps the scatter data for plotting.
func WriteLayoutCSV(w io.Writer, r *LayoutResult) {
	fprintf(w, "compaction,offset_mb,length_kb\n")
	for _, p := range r.Points {
		fprintf(w, "%d,%.3f,%.3f\n", p.Compaction, p.OffsetMB, p.LengthKB)
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — band-size sweep

// BandSweepRow is one band size of Figure 3.
type BandSweepRow struct {
	BandSSTables float64 // band size in SSTable units (paper: 5..15)
	BandMB       float64
	// Figure 3(a)
	SSTablesPerCompaction float64
	BandsPerCompaction    float64
	// Figure 3(b)
	WA  float64
	MWA float64
}

// RunFig3 loads LevelDB-on-SMR at several band sizes and measures how
// many SSTables and bands one compaction touches, and the resulting
// WA/MWA.
func RunFig3(o Options) ([]BandSweepRow, error) {
	sst := o.Geometry.SSTableSize
	var rows []BandSweepRow
	for _, units := range []float64{5, 7.5, 10, 12.5, 15} {
		g := o.Geometry
		g.BandSize = int64(units * float64(sst))
		opts := o
		opts.Geometry = g
		db, merges, err := opts.loadStore(lsm.ModeLevelDB)
		if err != nil {
			return nil, err
		}

		// Per-compaction: SSTables written and distinct bands their
		// placements touch (Figure 3(a)).
		var sstSum, bandSum, n float64
		for _, ci := range merges {
			if len(ci.OutputPlacements) == 0 {
				continue
			}
			bands := map[int64]bool{}
			for _, ext := range ci.OutputPlacements {
				for b := ext.Off / g.BandSize; b <= (ext.End()-1)/g.BandSize; b++ {
					bands[b] = true
				}
			}
			sstSum += float64(ci.OutputFiles)
			bandSum += float64(len(bands))
			n++
		}
		amp := db.Amplification()
		row := BandSweepRow{
			BandSSTables: units,
			BandMB:       float64(g.BandSize) / float64(kv.MiB),
			WA:           amp.WA,
			MWA:          amp.MWA,
		}
		if n > 0 {
			row.SSTablesPerCompaction = sstSum / n
			row.BandsPerCompaction = bandSum / n
		}
		rows = append(rows, row)
		db.Close()
	}
	return rows, nil
}

// PrintFig3 renders the band-size sweep.
func PrintFig3(w io.Writer, rows []BandSweepRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fig 3: band size (SSTables)\tband MB\tSSTables/compaction\tbands/compaction\tWA\tMWA\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.BandSSTables, r.BandMB, r.SSTablesPerCompaction, r.BandsPerCompaction, r.WA, r.MWA)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 10 — compaction latency and size

// CompactionProfile is one store's compaction behaviour during a
// random load.
type CompactionProfile struct {
	Store       string
	Latencies   []time.Duration // per merge compaction, in order
	Compactions int
	TotalTime   time.Duration
	MeanBytes   float64 // average input+output data per compaction
	// MeanSetBytes is the average compaction unit (inputs from the
	// next level) — the paper equates it with the average set size.
	MeanSetBytes float64
	MeanSetFiles float64
}

// RunFig10 loads each store randomly and profiles its compactions.
func RunFig10(o Options) ([]*CompactionProfile, error) {
	var out []*CompactionProfile
	for _, mode := range []lsm.Mode{lsm.ModeLevelDB, lsm.ModeSMRDB, lsm.ModeSEALDB} {
		db, merges, err := o.loadStore(mode)
		if err != nil {
			return nil, err
		}
		p := &CompactionProfile{Store: mode.String()}
		var bytesSum, setBytes, setFiles float64
		var setN float64
		for _, ci := range merges {
			p.Compactions++
			p.Latencies = append(p.Latencies, ci.Latency)
			p.TotalTime += ci.Latency
			bytesSum += float64(ci.InputBytes + ci.OutputBytes)
			if ci.Inputs1 > 0 {
				setBytes += float64(ci.InputBytes)
				setFiles += float64(ci.Inputs1)
				setN++
			}
		}
		if p.Compactions > 0 {
			p.MeanBytes = bytesSum / float64(p.Compactions)
		}
		if setN > 0 {
			p.MeanSetBytes = setBytes / setN
			p.MeanSetFiles = setFiles / setN
		}
		out = append(out, p)
		db.Close()
	}
	return out, nil
}

// PrintFig10 renders the compaction profiles.
func PrintFig10(w io.Writer, profiles []*CompactionProfile) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fig 10: store\tcompactions\ttotal latency\tmean latency\tavg compaction MB\tavg set files\n")
	for _, p := range profiles {
		mean := time.Duration(0)
		if p.Compactions > 0 {
			mean = p.TotalTime / time.Duration(p.Compactions)
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.2f\t%.2f\n",
			p.Store, p.Compactions, p.TotalTime.Round(time.Millisecond),
			mean.Round(time.Microsecond), p.MeanBytes/float64(kv.MiB), p.MeanSetFiles)
	}
	tw.Flush()
}

// WriteFig10CSV dumps the per-compaction latency series.
func WriteFig10CSV(w io.Writer, profiles []*CompactionProfile) {
	fprintf(w, "store,compaction,latency_ms\n")
	for _, p := range profiles {
		for i, l := range p.Latencies {
			fprintf(w, "%s,%d,%.3f\n", p.Store, i+1, float64(l.Microseconds())/1000)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 12 — write amplification

// AmplificationRow is one store's WA/AWA/MWA after a random load.
type AmplificationRow struct {
	Store string
	lsm.Amplification
}

// RunFig12 measures the three stores' write amplification.
func RunFig12(o Options) ([]AmplificationRow, error) {
	var rows []AmplificationRow
	for _, mode := range []lsm.Mode{lsm.ModeLevelDB, lsm.ModeSMRDB, lsm.ModeSEALDB} {
		db, _, err := o.loadStore(mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AmplificationRow{Store: mode.String(), Amplification: db.Amplification()})
		db.Close()
	}
	return rows, nil
}

// PrintFig12 renders the amplification table.
func PrintFig12(w io.Writer, rows []AmplificationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fig 12: store\tWA\tAWA\tMWA\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.2f\n", r.Store, r.WA, r.AWA, r.MWA)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 13 — dynamic bands and fragments

// FragmentResult is the dynamic-band census after a random load.
type FragmentResult struct {
	Bands          int
	MeanBandMB     float64
	MaxBandMB      float64
	OccupiedMB     float64
	FragmentMB     float64
	FragmentOfUsed float64 // fragments / occupied space (paper: 9.32%)
	AvgSetBytes    int64   // fragment threshold used
}

// RunFig13 loads SEALDB randomly and reports the dynamic band layout
// and fragment census, using the measured average set size as the
// fragment threshold as the paper does.
func RunFig13(o Options) (*FragmentResult, []LayoutPoint, error) {
	db, merges, err := o.loadStore(lsm.ModeSEALDB)
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()

	// Average set size from the compaction trace.
	var setBytes float64
	var setN float64
	for _, ci := range merges {
		if ci.Inputs1 > 0 {
			setBytes += float64(ci.OutputBytes)
			setN++
		}
	}
	avgSet := int64(0)
	if setN > 0 {
		avgSet = int64(setBytes / setN)
	}

	mgr := db.Device().DBand
	bands := mgr.Bands()
	res := &FragmentResult{Bands: len(bands), AvgSetBytes: avgSet}
	var total, max int64
	var points []LayoutPoint
	for i, b := range bands {
		total += b.Len
		if b.Len > max {
			max = b.Len
		}
		points = append(points, LayoutPoint{
			Compaction: int64(i),
			OffsetMB:   float64(b.Off) / float64(kv.MiB),
			LengthKB:   float64(b.Len) / float64(kv.KiB),
		})
	}
	if len(bands) > 0 {
		res.MeanBandMB = float64(total) / float64(len(bands)) / float64(kv.MiB)
		res.MaxBandMB = float64(max) / float64(kv.MiB)
	}
	res.OccupiedMB = float64(mgr.Frontier()) / float64(kv.MiB)
	res.FragmentMB = float64(mgr.FragmentBytes(avgSet)) / float64(kv.MiB)
	if res.OccupiedMB > 0 {
		res.FragmentOfUsed = res.FragmentMB / res.OccupiedMB
	}
	return res, points, nil
}

// PrintFig13 renders the fragment census.
func PrintFig13(w io.Writer, r *FragmentResult) {
	fprintf(w, "Fig 13: %d dynamic bands (mean %.2f MB, max %.2f MB), occupied %.1f MB, fragments %.2f MB (%.2f%% of occupied, threshold = avg set %.2f MB)\n",
		r.Bands, r.MeanBandMB, r.MaxBandMB, r.OccupiedMB, r.FragmentMB,
		100*r.FragmentOfUsed, float64(r.AvgSetBytes)/float64(kv.MiB))
}
