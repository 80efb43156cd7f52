package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
)

// layerRound collects one traced round's per-layer numbers: the tracer's
// wall-clock ledgers, each layer's exported counters, and a calibration
// pass over the segments the round persisted.
func (rn *run) layerRound(r *round, tr *tracer, m0, m1 *runtime.MemStats, cpu time.Duration, poolDelta int64) map[string]float64 {
	f := r.f
	m := simFingerprint(r)
	for k, v := range calibrate(tr.takeBlobs()) {
		m[k] = v
	}
	m["core.submit_busy_s"] = tr.seconds(tSubmit)
	m["core.offload_now_s"] = tr.seconds(tOffloadNow)
	m["core.reopen_s"] = tr.seconds(tReopen)
	m["core.restore_image_s"] = tr.seconds(tRestoreImage)
	m["core.verify_read_s"] = tr.seconds(tVerifyRead)
	l := r.ledger()
	m["core.stalls"] = float64(l.stalls)
	m["ftl.gc_runs"] = float64(l.gcRuns)
	m["ftl.gc_migrates"] = float64(l.gcMigrates)
	m["ftl.pin_migrates"] = float64(l.pinMigrates)

	m["nvmeoe.wire_mb_up"] = float64(tr.wireUp.Load()) / 1e6
	m["nvmeoe.wire_mb_down"] = float64(tr.wireDown.Load()) / 1e6
	m["nvmeoe.wire_block_s"] = tr.seconds(tWireBlock)

	tot := f.srv.IngestTotals()
	m["remote.decode_s"] = (tot.DecodeTime - r.base.ingest.DecodeTime).Seconds()
	m["remote.decode_queue_peak"] = float64(tot.DecodeQueuePeak)
	m["remote.ingest_errors"] = float64(tot.Errors)
	m["remote.tier_put_s"] = tr.seconds(tTierPut)
	m["remote.tier_put_mb"] = float64(tr.putBytes.Load()) / 1e6
	m["remote.dedup_hit_rate"] = f.store.Dedup().HitRate()
	var lit, ref, wire uint64
	for _, d := range f.devs {
		rs := f.srv.RecoveryStats(d.id)
		lit += rs.PagesLiteral
		ref += rs.PagesRef
		wire += rs.BytesWire
	}
	m["remote.restore_pages_literal"] = float64(lit)
	m["remote.restore_pages_ref"] = float64(ref)
	m["remote.restore_wire_mb"] = float64(wire) / 1e6

	m["detect.observe_s"] = tr.seconds(tObserve)
	attacked, caught, falseAlerts := 0, 0, 0
	for _, d := range f.devs {
		start, isAttacked := r.cut[d.id]
		if isAttacked {
			attacked++
		}
		hit := false
		for _, a := range f.eng.AlertsFor(d.id) {
			if isAttacked && a.AtSeq >= start {
				hit = true
			} else {
				falseAlerts++
			}
		}
		if hit {
			caught++
		}
	}
	m["detect.attacked"] = float64(attacked)
	m["detect.caught"] = float64(caught)
	m["detect.false_alerts"] = float64(falseAlerts)

	m["bufpool.outstanding_delta"] = float64(poolDelta)
	logicalMB := float64(r.logical) / 1e6
	m["runtime.alloc_mb_per_logical_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / logicalMB
	m["runtime.gc_pause_s"] = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs).Seconds()
	m["bench.gen_s"] = r.gen.Seconds()
	if cpu > 0 {
		m["bench.gen_cpu_share"] = r.gen.Seconds() / cpu.Seconds()
	}
	m["bench.interval_s"] = r.interval.Seconds()
	return m
}

// layerMetrics averages the traced rounds' per-layer numbers and adds the
// run-level ones: tracing overhead and the simulated-time fingerprint.
func (rn *run) layerMetrics() map[string]metric {
	out := map[string]metric{}
	for _, k := range layerNames() {
		var v []float64
		for _, m := range rn.layers {
			v = append(v, m[k])
		}
		out[k] = metric{mean(v), layerUnits[k]}
	}
	traced, untraced := median(rn.tracedMB), median(rn.mbps)
	out["bench.traced_throughput_mbps"] = metric{traced, "MB/s"}
	out["bench.untraced_throughput_mbps"] = metric{untraced, "MB/s"}
	if untraced > 0 {
		out["bench.trace_overhead"] = metric{1 - traced/untraced, "ratio"}
	}
	repeat, vary := rn.simRepeats()
	out["bench.sim_repeat_frac"] = metric{float64(len(repeat)) / float64(len(simKeys)), "ratio"}
	fmt.Printf("calibration: %s/%s, %d CPUs; MB/s on this run's own segments\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	fmt.Printf("sim fingerprint over %d round pairs sharing inputs: repeat %v; vary %v\n", len(rn.sims)/2, repeat, vary)
	return out
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"core.submit_busy_s": "s", "core.offload_now_s": "s", "core.stalls": "count", "core.segments": "count",
	"core.reopen_s": "s", "core.restore_image_s": "s", "core.verify_read_s": "s",
	"core.host_lat_sim_p50_us": "us", "core.host_lat_sim_p99_us": "us", "core.ack_sim_us": "us", "core.rto_sim_p50_ms": "ms",
	"ftl.waf": "ratio", "ftl.gc_runs": "count", "ftl.gc_migrates": "count", "ftl.pin_migrates": "count",
	"oplog.hash_mbps":    "MB/s",
	"nvmeoe.encode_mbps": "MB/s", "nvmeoe.decode_mbps": "MB/s", "nvmeoe.frame_mbps": "MB/s",
	"nvmeoe.stored_frac": "ratio", "nvmeoe.wire_mb_up": "MB", "nvmeoe.wire_mb_down": "MB", "nvmeoe.wire_block_s": "s",
	"remote.decode_s": "s", "remote.decode_queue_peak": "count", "remote.ingest_errors": "count",
	"remote.tier_put_s": "s", "remote.tier_put_mb": "MB", "remote.store_append_mbps": "MB/s",
	"remote.dedup_hit_rate": "ratio", "remote.restore_pages_literal": "count", "remote.restore_pages_ref": "count",
	"remote.restore_wire_mb": "MB",
	"detect.observe_s":       "s", "detect.attacked": "count", "detect.caught": "count", "detect.false_alerts": "count",
	"netsim.restore_wait_sim_p99_ms": "ms", "netsim.offload_wait_sim_p99_ms": "ms",
	"bufpool.outstanding_delta":       "count",
	"runtime.alloc_mb_per_logical_mb": "ratio", "runtime.gc_pause_s": "s",
	"bench.gen_s": "s", "bench.gen_cpu_share": "ratio", "bench.interval_s": "s",
}

func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for k := range layerUnits {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// calibrateBytes caps the logical bytes each calibration pass processes.
const calibrateBytes = 32 << 20

// calibrate times the codec, hash, frame and store-append layers on the
// segment blobs a round persisted, not on fixture pages. These are the
// measured twins of the simulator's hand-set encode, NIC and link rates.
func calibrate(blobs [][]byte) map[string]float64 {
	m := map[string]float64{}
	if len(blobs) == 0 {
		return m
	}
	stored := 0
	for _, b := range blobs {
		if nvmeoe.IsSegmentBlob(b) && nvmeoe.Codec(b[4]) == nvmeoe.CodecStored {
			stored++
		}
	}
	m["nvmeoe.stored_frac"] = float64(stored) / float64(len(blobs))

	// Decode: blob -> segment marshal.
	var raws [][]byte
	logical := 0
	t0 := time.Now()
	for _, b := range blobs {
		raw, err := nvmeoe.AppendDecodeSegmentBlob(nil, b)
		if err != nil {
			break
		}
		raws = append(raws, raw)
		logical += len(raw)
		if logical >= calibrateBytes {
			break
		}
	}
	m["nvmeoe.decode_mbps"] = mbps(logical, time.Since(t0))
	blobs = blobs[:len(raws)]

	// Encode: segment marshal -> blob.
	var dst []byte
	t0 = time.Now()
	for _, raw := range raws {
		dst = nvmeoe.AppendSegmentBlob(dst[:0], raw)
	}
	m["nvmeoe.encode_mbps"] = mbps(logical, time.Since(t0))

	// Hash: SHA-256 of every page the segments carry.
	segs := make([]*oplog.Segment, 0, len(raws))
	for _, raw := range raws {
		if s, err := oplog.UnmarshalSegment(raw); err == nil {
			segs = append(segs, s)
		}
	}
	hashed := 0
	t0 = time.Now()
	for _, s := range segs {
		for i := range s.Pages {
			_ = oplog.HashData(s.Pages[i].Data)
			hashed += len(s.Pages[i].Data)
		}
	}
	if hashed > 0 {
		m["oplog.hash_mbps"] = mbps(hashed, time.Since(t0))
	}

	// Store append: verify and ingest into a fresh store, in ingest order.
	if len(segs) == len(blobs) {
		st := remote.NewStore(remote.NewMemStore())
		t0 = time.Now()
		ok := true
		for i, s := range segs {
			if err := st.AppendSegmentBlob(s, blobs[i]); err != nil {
				ok = false
				break
			}
		}
		if ok {
			m["remote.store_append_mbps"] = mbps(logical, time.Since(t0))
		}
	}

	// Frame: handshaken session, WriteMsg -> ReadMsg of every blob.
	if mb, err := frameMBps(blobs); err == nil {
		m["nvmeoe.frame_mbps"] = mb
	}
	return m
}

func frameMBps(blobs [][]byte) (float64, error) {
	dc, sc := net.Pipe()
	defer dc.Close()
	defer sc.Close()
	type accepted struct {
		c   *nvmeoe.Conn
		err error
	}
	srv := make(chan accepted, 1)
	go func() {
		c, _, err := nvmeoe.ServerHandshake(sc, func(uint64) ([]byte, bool) { return psk, true })
		srv <- accepted{c, err}
	}()
	dev, err := nvmeoe.DeviceHandshake(dc, psk, 1)
	if err != nil {
		return 0, err
	}
	a := <-srv
	if a.err != nil {
		return 0, a.err
	}
	total := 0
	for _, b := range blobs {
		total += len(b)
	}
	read := make(chan error, 1)
	t0 := time.Now()
	go func() {
		for range blobs {
			if _, _, err := a.c.ReadMsg(); err != nil {
				read <- err
				return
			}
		}
		read <- nil
	}()
	for _, b := range blobs {
		if err := dev.WriteMsg(nvmeoe.MsgSegment, b); err != nil {
			dc.Close()
			<-read
			return 0, err
		}
	}
	if err := <-read; err != nil {
		return 0, err
	}
	return mbps(total, time.Since(t0)), nil
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
