package main

import (
	"sync/atomic"
	"time"

	"sealdb/internal/smr"
)

// timedDrive sits between the engine and the emulated drive (installed
// with lsm.Config.WrapDrive). While armed it sums the simulated
// durations the drive returns, splits them into reads and writes, and
// measures the host wall time spent inside each call — the emulator's
// own CPU cost, kept apart from the engine's. Disarmed, a call costs
// one atomic load over the drive it wraps.
type timedDrive struct {
	smr.Drive
	armed atomic.Bool
	spans *spanLog

	readDevNS, writeDevNS   atomic.Int64
	readHostNS, writeHostNS atomic.Int64
	calls                   atomic.Int64
}

// driveSpanEvery keeps one span per this many timed drive calls: a
// scan chasing value-log pointers makes ~50 calls per operation.
const driveSpanEvery = 16

// Unwrap lets smr.Base and the engine's drive introspection see
// through the wrapper.
func (d *timedDrive) Unwrap() smr.Drive { return d.Drive }

func (d *timedDrive) ReadAt(p []byte, off int64) (time.Duration, error) {
	if !d.armed.Load() {
		return d.Drive.ReadAt(p, off)
	}
	t0 := time.Now()
	dur, err := d.Drive.ReadAt(p, off)
	host := time.Since(t0)
	d.readDevNS.Add(int64(dur))
	d.readHostNS.Add(int64(host))
	if d.calls.Add(1)%driveSpanEvery == 0 {
		d.spans.add("drive.read", t0, host, int64(dur), int64(len(p)))
	}
	return dur, err
}

func (d *timedDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	if !d.armed.Load() {
		return d.Drive.WriteAt(p, off)
	}
	t0 := time.Now()
	dur, err := d.Drive.WriteAt(p, off)
	host := time.Since(t0)
	d.writeDevNS.Add(int64(dur))
	d.writeHostNS.Add(int64(host))
	if d.calls.Add(1)%driveSpanEvery == 0 {
		d.spans.add("drive.write", t0, host, int64(dur), int64(len(p)))
	}
	return dur, err
}

// driveTotals is a point-in-time copy of the wrapper's sums.
type driveTotals struct {
	readDevNS, writeDevNS, readHostNS, writeHostNS int64
}

func (d *timedDrive) totals() driveTotals {
	return driveTotals{
		readDevNS:   d.readDevNS.Load(),
		writeDevNS:  d.writeDevNS.Load(),
		readHostNS:  d.readHostNS.Load(),
		writeHostNS: d.writeHostNS.Load(),
	}
}

func (t driveTotals) sub(o driveTotals) driveTotals {
	return driveTotals{
		readDevNS:   t.readDevNS - o.readDevNS,
		writeDevNS:  t.writeDevNS - o.writeDevNS,
		readHostNS:  t.readHostNS - o.readHostNS,
		writeHostNS: t.writeHostNS - o.writeHostNS,
	}
}
