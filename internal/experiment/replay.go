package experiment

import (
	"repro/internal/batch"
	"repro/internal/host"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Trace replay drives devices through the batched datapath: one trace
// record (a multi-page host request) becomes one submission batch, the
// way an NVMe driver turns one I/O into one queue submission. Every
// figure/table experiment that replays traces goes through these helpers,
// so the published numbers exercise the same path production I/O would.

// recordBatch converts one trace record into a submission batch, appending
// onto ops (pass ops[:0] to reuse a buffer). Content for writes is drawn
// from the generator in page order, matching what a per-op replay writes.
func recordBatch(g *workload.Generator, rec workload.Record, logical uint64, ops []batch.Op) []batch.Op {
	for p := 0; p < rec.Pages; p++ {
		lpn := rec.LPN + uint64(p)
		if lpn >= logical {
			break
		}
		switch rec.Op {
		case workload.OpWrite:
			ops = append(ops, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: g.Content()})
		case workload.OpRead:
			ops = append(ops, batch.Op{Kind: batch.OpRead, LPN: lpn})
		case workload.OpTrim:
			ops = append(ops, batch.Op{Kind: batch.OpTrim, LPN: lpn})
		}
	}
	return ops
}

// submitRecord submits one record's batch at issue time and returns when
// the device finished it (never before issue). Per-op and batch-level
// failures both surface as errors.
func submitRecord(dev batch.Device, ops []batch.Op, issue simclock.Time) (simclock.Time, error) {
	if len(ops) == 0 {
		return issue, nil
	}
	res, done, err := dev.SubmitBatch(ops, issue)
	if err != nil {
		return issue, err
	}
	for i := range res {
		if res[i].Err != nil {
			return issue, res[i].Err
		}
	}
	return simclock.Max(issue, done), nil
}

// replay drives n trace records from g through dev's batched datapath and
// returns the completion high-water mark, never below end. A record issues
// at its trace time plus off or, saturated, the instant the device
// finished the one before: the device, not the trace, sets the pace. step,
// when set, sees each submitted record's latency and the high-water mark.
func replay(dev host.BatchDevice, g *workload.Generator, n int, end simclock.Time, off simclock.Duration,
	saturate bool, step func(lat simclock.Duration, end simclock.Time)) (simclock.Time, error) {
	var ops []batch.Op
	for j := 0; j < n; j++ {
		rec := g.Next()
		ops = recordBatch(g, rec, dev.LogicalPages(), ops[:0])
		if len(ops) == 0 {
			continue
		}
		issue := rec.At + simclock.Time(off)
		if saturate {
			issue = end
		}
		done, err := submitRecord(dev, ops, issue)
		if err != nil {
			return end, err
		}
		end = simclock.Max(end, done)
		if step != nil {
			step(done.Sub(issue), end)
		}
	}
	return end, nil
}
