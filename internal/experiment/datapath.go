package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The datapath experiment is the allocation-tracked hot-loop benchmark the
// zero-allocation work is graded against. It does three things in one run:
//
//  1. Micro loops, single-goroutine: the encode hot loop (segment marshal
//     into a pooled buffer + codec framing into a pooled buffer) and the
//     ingest-side decode loop are measured with the runtime allocator
//     counters. Both must be zero allocs/op in steady state — encode
//     through the pooled deflater, decode through the in-house pooled
//     inflater (which rebuilds Huffman tables in place instead of
//     allocating them per block the way compress/flate does). The full
//     store ingest, which retains pages and grows indexes by design, is
//     reported honestly alongside.
//
//  2. A fleet replay through the encode-worker pipeline. Wall-clock
//     segs/sec and wire MB/s are what the worker pool must not regress;
//     the simulated encode stage and ack latencies show where the overlap
//     went.
//
//  3. The server-side saturated ingest run (see ingest.go).

// DatapathVariantRow reports one fleet pass of the datapath replay.
//
// SimSegsPerSec — segments per simulated second of device time — is the
// tracked number: it is what the device's modeled hardware sustains, the
// claim the paper makes. Wall-clock throughput is reported alongside but
// depends on how many host cores the simulation happens to get (on a
// single-core runner the worker pipeline degenerates to time-slicing and
// wall numbers measure scheduler overhead, not the datapath).
type DatapathVariantRow struct {
	Variant       string // "workers"
	Devices       int
	PageOps       int
	Segments      uint64
	SimMs         float64 // mean simulated span of one device's run
	SimSegsPerSec float64 // fleet seal→ship throughput in simulated time (the tracked number)
	WallMs        float64
	SegsPerSec    float64 // wall-clock throughput (core-count dependent)
	WireMB        float64 // compressed MB that crossed the offload links
	WireMBps      float64 // wire throughput (wall clock)
	MeanLatUs     float64 // host batch latency during replay
	AckUs         float64 // mean seal-to-ack (simulated)
	EncodeMs      float64 // simulated codec-stage time, summed over devices
	EncodeQPk     int     // deepest encode-stage occupancy across devices
	Stalls        uint64  // backpressure stalls across devices
}

// DatapathAllocRow reports one measured hot loop.
type DatapathAllocRow struct {
	Loop        string
	AllocsPerOp float64
	BytesPerOp  float64
	Ops         int
	Note        string
}

// DatapathResult is the full datapath report. Ingest is the server half of
// the wire-speed datapath — the saturated decode-lane run — committed to
// the same BENCH_datapath.json so both lanes' trajectories live together.
type DatapathResult struct {
	Allocs   []DatapathAllocRow
	Variants []DatapathVariantRow
	Ingest   *IngestResult
}

// measureAllocs runs f ops times on one OS thread and returns the
// allocator's per-op averages. Like testing.AllocsPerRun it warms once,
// pins GOMAXPROCS to 1, and divides the raw counter delta by the run
// count (integer division on mallocs, exactly as AllocsPerRun reports).
func measureAllocs(ops int, f func()) (allocsPerOp, bytesPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pools and any lazy state
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(ops)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(ops))
}

// datapathSegment builds a representative sealed segment: a run of chained
// log entries plus page records of compressible (fleet-profile-like)
// content, the shape the offload engine encodes all day.
func datapathSegment(s Scale, pages int) *oplog.Segment {
	seg := &oplog.Segment{DeviceID: 1, FirstSeq: 0, LastSeq: uint64(pages)}
	var prev [oplog.HashSize]byte
	for i := 0; i < pages; i++ {
		e := oplog.Entry{Seq: uint64(i), Kind: oplog.KindWrite, LPN: uint64(i),
			At: simclock.Time(0).Add(simclock.Duration(i) * simclock.Microsecond)}
		e.Seal(prev)
		prev = e.Hash
		seg.Entries = append(seg.Entries, e)
	}
	snippet := []byte("fleet workload page content; compresses like hm/src. ")
	content := bytes.Repeat(snippet, 1+s.PageSize/len(snippet))
	for i := 0; i < pages; i++ {
		data := append([]byte(nil), content[:s.PageSize]...)
		data[0] = byte(i) // not all identical
		seg.Pages = append(seg.Pages, oplog.PageRecord{
			LPN: uint64(i), WriteSeq: uint64(i), StaleSeq: uint64(i + 1),
			Hash: oplog.HashData(data), Data: data,
		})
	}
	return seg
}

// datapathAllocs measures the hot loops. The encode and decode loops must
// be zero-alloc in steady state; the store ingest loop retains data by
// design and is reported, not asserted.
func datapathAllocs(s Scale) []DatapathAllocRow {
	const ops = 100
	seg := datapathSegment(s, 16)
	logical := seg.MarshaledSize()

	mbuf := bufpool.Get(logical)
	bbuf := bufpool.Get(nvmeoe.BlobOverhead + logical)
	defer mbuf.Release()
	defer bbuf.Release()
	encA, encB := measureAllocs(ops, func() {
		raw := seg.AppendMarshal(mbuf.B[:0])
		bbuf.B = nvmeoe.AppendSegmentBlob(bbuf.B[:0], raw)
	})

	blob := nvmeoe.EncodeSegmentBlob(seg.Marshal())
	dbuf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
	defer dbuf.Release()
	decA, decB := measureAllocs(ops, func() {
		out, err := nvmeoe.AppendDecodeSegmentBlob(dbuf.B[:0], blob)
		if err != nil {
			panic(err)
		}
		dbuf.B = out[:0]
	})

	// Full ingest: codec decode + unmarshal + chain verify + index insert.
	// Pages-only segments skip the chain check, as offload retries do.
	ingestStore := remote.NewStore(remote.NewMemStore())
	ingestSeg := datapathSegment(s, 16)
	ingestSeg.Entries = nil
	ingestBlob := nvmeoe.EncodeSegmentBlob(ingestSeg.Marshal())
	ingA, ingB := measureAllocs(ops, func() {
		if err := ingestStore.AppendSegmentBlob(ingestSeg, ingestBlob); err != nil {
			panic(err)
		}
	})

	return []DatapathAllocRow{
		{Loop: "encode", AllocsPerOp: encA, BytesPerOp: encB, Ops: ops,
			Note: "segment marshal + codec frame through pooled buffers (must be 0)"},
		{Loop: "decode", AllocsPerOp: decA, BytesPerOp: decB, Ops: ops,
			Note: "codec inflate into pooled buffer via the in-house inflater; tables rebuilt in place (must be 0)"},
		{Loop: "ingest", AllocsPerOp: ingA, BytesPerOp: ingB, Ops: ops,
			Note: "full store ingest; retains pages and grows indexes by design"},
	}
}

// datapathVariant runs one fleet pass (no attacks: pure datapath
// throughput) and aggregates it.
func datapathVariant(s Scale, devices int) (DatapathVariantRow, error) {
	row := DatapathVariantRow{Variant: "workers", Devices: devices}
	opts := fleetOpts{saturate: true, tune: remote.Profile("mem")}
	start := time.Now()
	rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{})
	defer rig.close()
	pass, err := runFleetOn(rig, devices, fleetReplayOps(s), opts)
	if err != nil {
		return row, err
	}
	pass.close()
	wall := time.Since(start)
	sum := pass.summary()
	row.WallMs = float64(wall.Microseconds()) / 1000
	row.PageOps = sum.PageOps
	row.Segments = sum.Segments
	row.MeanLatUs = sum.MeanLatUs
	var ackSum, simSum float64
	var wireBytes uint64
	for _, r := range pass.rows {
		wireBytes += r.WireBytes
		ackSum += r.AckLatUs * float64(r.Segments)
		simSum += r.SimMs
		row.EncodeMs += r.EncodeMs
		row.Stalls += r.Stalls
		if r.EncodeQPeak > row.EncodeQPk {
			row.EncodeQPk = r.EncodeQPeak
		}
	}
	row.WireMB = float64(wireBytes) / float64(1<<20)
	if row.Segments > 0 {
		row.AckUs = ackSum / float64(row.Segments)
	}
	if devices > 0 {
		row.SimMs = simSum / float64(devices)
	}
	if row.SimMs > 0 {
		// Devices run concurrently in simulated time: the fleet ships its
		// segments within one mean device span.
		row.SimSegsPerSec = float64(row.Segments) / (row.SimMs / 1000)
	}
	if secs := wall.Seconds(); secs > 0 {
		row.SegsPerSec = float64(row.Segments) / secs
		row.WireMBps = row.WireMB / secs
	}
	return row, nil
}

// Datapath runs the allocation loops, the encode-worker fleet replay, and
// the server-side saturated ingest run over ingestDevices sessions.
func Datapath(s Scale, devices, ingestDevices int) (*DatapathResult, error) {
	s = fleetScale(s)
	res := &DatapathResult{}
	// Alloc loops first: nothing else is running, so the allocator
	// counters see only the measured loop.
	res.Allocs = datapathAllocs(s)
	workers, err := datapathVariant(s, devices)
	if err != nil {
		return nil, fmt.Errorf("datapath workers: %w", err)
	}
	res.Variants = []DatapathVariantRow{workers}
	res.Ingest, err = Ingest(s, ingestDevices)
	if err != nil {
		return nil, fmt.Errorf("datapath ingest: %w", err)
	}
	return res, nil
}

// RenderDatapath renders the alloc table and the fleet replay row.
func RenderDatapath(res *DatapathResult) string {
	at := metrics.NewTable("hot loop", "allocs/op", "bytes/op", "ops", "note")
	for _, a := range res.Allocs {
		at.AddRow(a.Loop, a.AllocsPerOp, a.BytesPerOp, a.Ops, a.Note)
	}
	vt := metrics.NewTable("variant", "devices", "page ops", "segs", "sim ms",
		"segs/s (sim)", "segs/s (wall)", "wire MB/s", "host µs", "ack µs",
		"enc ms (sim)", "enc q peak", "stalls")
	for _, v := range res.Variants {
		vt.AddRow(v.Variant, v.Devices, v.PageOps, v.Segments, v.SimMs,
			v.SimSegsPerSec, v.SegsPerSec, v.WireMBps, v.MeanLatUs, v.AckUs,
			v.EncodeMs, v.EncodeQPk, v.Stalls)
	}
	out := at.String() + vt.String()
	if res.Ingest != nil {
		out += RenderIngest(res.Ingest)
	}
	return out
}
