package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The fleet experiment is the end-to-end exercise of the asynchronous
// offload pipeline: N devices — each a full RSSD with its own staging
// engine — stream segments concurrently into one server over net.Pipe
// NVMe-oE sessions, the store ingests them on sharded per-device indexes,
// and the detection pipeline scores every device's window as segments
// arrive. Half the devices additionally run a ransomware variant
// (encryptor, timing attack, trimming attack, cycled); streaming detection
// must catch each of them with no false alerts on the benign traffic.
//
// The same fleet is then rerun with SyncOffload devices — the inline
// baseline that charges seal + transfer time to host I/O — to measure what
// overlapping the transfer buys in host batch latency.

// fleetProfiles are the benign replay workloads cycled across the fleet.
// They are low-entropy members of the corpus: live-traffic detection must
// stay false-positive free, so their page content sits clearly below the
// ciphertext entropy threshold.
var fleetProfiles = []string{"hm", "src", "usr"}

// fleetAttacks cycles over the attacked devices.
var fleetAttacks = []AttackName{AtkEncryptor, AtkTiming, AtkTrimming}

// fleetScale shrinks the per-device geometry: a fleet multiplies the
// footprint by N, and a tighter device keeps the offload watermarks in
// play during the replay itself rather than only at the final flush.
func fleetScale(s Scale) Scale {
	s.BlocksPerPlane /= 4
	if s.BlocksPerPlane < 16 {
		s.BlocksPerPlane = 16
	}
	return s
}

// FleetDeviceRow reports one device of the fleet.
type FleetDeviceRow struct {
	Device         uint64
	Role           string // workload profile, "+<attack>" when attacked
	Attacked       bool
	Records        int     // replay records (the measured phase)
	PageOps        int     // host page operations across all phases
	SimMs          float64 // simulated span of the device's run (all phases)
	MeanLatUs      float64 // host batch latency during replay
	P99LatUs       float64
	ReplaySegments uint64  // segments shipped while host I/O was running
	Segments       uint64  // total segments shipped (incl. final flush)
	AckLatUs       float64 // mean seal-to-ack latency (incl. tier service time)
	QueuePeak      int     // deepest staging-pipeline occupancy
	Stalls         uint64  // host stalls from staging backpressure
	WireBytes      uint64  // compressed bytes that crossed the offload link
	EncodeMs       float64 // simulated codec-stage time (overlapped with host I/O)
	EncodeQPeak    int     // deepest encode-stage occupancy
	Detected       bool
	OpsToAlert     uint64
	FalseAlerts    int
}

// FleetSummary aggregates the fleet run and its synchronous baseline.
type FleetSummary struct {
	Devices        int
	Attacked       int
	Caught         int
	FalseAlerts    int
	PageOps        int
	Segments       uint64
	WallMs         float64
	PageOpsPerSec  float64 // fleet host throughput (wall clock)
	SegmentsPerSec float64 // fleet ingest rate (wall clock)
	MeanLatUs      float64 // mean host batch latency, async engine
	SyncMeanLatUs  float64 `json:",omitempty"` // same fleet, SyncOffload baseline (absent when no sync pass ran)
	OverlapSpeedup float64 `json:",omitempty"` // SyncMeanLatUs / MeanLatUs
}

// FleetResult is the full fleet report. Cluster is set only on
// multi-server runs (fleetcluster.go); per-device Rows are dropped past 64
// devices to keep the committed report compact.
type FleetResult struct {
	Rows    []FleetDeviceRow `json:",omitempty"`
	Summary FleetSummary
	Cluster *FleetClusterResult `json:",omitempty"`
}

// fleetPass is one fleet execution. Its devices stay open for the
// caller's audit; close releases them.
type fleetPass struct {
	rows []FleetDeviceRow
	devs []*core.RSSD
	wall time.Duration
}

func (p *fleetPass) close() {
	for _, d := range p.devs {
		d.Close()
	}
}

// summary aggregates the pass: detection coverage, host work, and the
// record-weighted mean host batch latency.
func (p *fleetPass) summary() FleetSummary {
	sum := FleetSummary{Devices: len(p.rows), WallMs: float64(p.wall.Microseconds()) / 1000}
	records := 0
	var totalLat simclock.Duration
	for _, row := range p.rows {
		if row.Attacked {
			sum.Attacked++
			if row.Detected {
				sum.Caught++
			}
		}
		sum.FalseAlerts += row.FalseAlerts
		sum.PageOps += row.PageOps
		sum.Segments += row.Segments
		records += row.Records
		totalLat += simclock.Duration(row.MeanLatUs * 1000 * float64(row.Records))
	}
	if records > 0 {
		sum.MeanLatUs = float64(totalLat) / float64(records) / 1000
	}
	if secs := p.wall.Seconds(); secs > 0 {
		sum.PageOpsPerSec = float64(sum.PageOps) / secs
		sum.SegmentsPerSec = float64(sum.Segments) / secs
	}
	return sum
}

// fleetOpts tunes one fleet pass.
type fleetOpts struct {
	syncOffload bool
	withAttacks bool
	// saturate submits each replay record the instant the previous one
	// completes instead of at its trace timestamp: the device-limited
	// pace the datapath benchmark measures throughput at. Trace-paced
	// runs (the default) measure latency under realistic arrival gaps.
	saturate bool
	tune     remote.BackendProfile
	// hold, when set, is called once by every device one third of the way
	// through its replay, or as it fails before that point: the cluster
	// pass's kill barrier.
	hold func()
}

// Fleet runs the fleet scenario. With servers <= 1 it is the classic
// single-server run plus its synchronous baseline; with more it becomes
// the control-plane exercise — consistent-hash placement, an injected
// server kill healed through the redial path, and the server-count
// scaling curve (fleetcluster.go).
func Fleet(s Scale, devices, servers int) (*FleetResult, error) {
	if servers > 1 {
		if devices <= 0 {
			devices = 8
		}
		return fleetCluster(s, devices, servers)
	}
	s = fleetScale(s)
	async, err := runFleet(s, devices, fleetOpts{withAttacks: true, tune: remote.Profile("mem")})
	if err != nil {
		return nil, fmt.Errorf("fleet async: %w", err)
	}
	base, err := runFleet(s, devices, fleetOpts{syncOffload: true, tune: remote.Profile("mem")})
	if err != nil {
		return nil, fmt.Errorf("fleet sync baseline: %w", err)
	}
	sum := async.summary()
	sum.SyncMeanLatUs = base.summary().MeanLatUs
	if sum.MeanLatUs > 0 {
		sum.OverlapSpeedup = sum.SyncMeanLatUs / sum.MeanLatUs
	}
	return &FleetResult{Rows: async.rows, Summary: sum}, nil
}

// fleetReplayOps is the measured replay length of a single-server fleet
// device.
func fleetReplayOps(s Scale) int { return max(s.TraceOps/8, 400) }

// runFleet executes one single-server pass over the in-memory tier.
func runFleet(s Scale, devices int, opts fleetOpts) (*fleetPass, error) {
	rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{})
	defer rig.close()
	pass, err := runFleetOn(rig, devices, fleetReplayOps(s), opts)
	if err != nil {
		return nil, err
	}
	pass.close()
	return pass, nil
}

// runFleetOn executes one pass through rig: every device runs
// concurrently, replaying replayOps benign records and (when
// opts.withAttacks) its assigned ransomware variant. The retention
// experiment runs it per backend tier with that tier's watermark/queue
// profile; the datapath experiment for its saturated encode-worker
// replay; the cluster pass with its kill barrier.
func runFleetOn(rig *fleetRig, devices, replayOps int, opts fleetOpts) (*fleetPass, error) {
	if devices <= 0 {
		devices = 8
	}
	clients, err := rig.dialInOrder(devices)
	if err != nil {
		return nil, err
	}
	p := &fleetPass{rows: make([]FleetDeviceRow, devices), devs: make([]*core.RSSD, devices)}
	start := time.Now()
	err = eachDevice(devices, func(i int) (err error) {
		var atk attack.Attack
		if opts.withAttacks {
			atk = fleetAttack(i)
		}
		p.rows[i], p.devs[i], err = runFleetDevice(rig, clients[i], i, atk, replayOps, opts)
		return err
	})
	p.wall = time.Since(start)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// runFleetDevice drives one device of the fleet: benign replay (measured),
// then the assigned attack (streamed to detection), then a final flush.
// The device starts on client and heals a cut session through the
// cluster's placement-aware redial path. It is returned open.
func runFleetDevice(rig *fleetRig, client *remote.Client, idx int, atk attack.Attack, replayOps int, opts fleetOpts) (FleetDeviceRow, *core.RSSD, error) {
	s := rig.s
	id := uint64(idx + 1)
	row := FleetDeviceRow{Device: id}
	hold := sync.OnceFunc(func() {
		if opts.hold != nil {
			opts.hold()
		}
	})
	defer hold() // a device failing before its barrier must still release it
	cfg := rig.deviceConfig(id, opts.tune)
	cfg.SyncOffload = opts.syncOffload
	dev := core.New(cfg, client)
	fs := host.NewFlatFS(dev, simclock.NewClock())
	profName, g, err := fleetGenerator(s, dev, idx, 1000)
	row.Role = profName
	if err != nil {
		return row, dev, err
	}

	// Phase 1 — benign replay through the batched datapath, measured.
	h := metrics.NewHistogram(0)
	step := func(lat simclock.Duration, _ simclock.Time) {
		h.Observe(lat)
		row.Records++
	}
	end, err := replay(dev, g, replayOps/3, 0, 0, opts.saturate, step)
	if err != nil {
		return row, dev, err
	}
	hold()
	if end, err = replay(dev, g, replayOps-replayOps/3, end, 0, opts.saturate, step); err != nil {
		return row, dev, err
	}
	row.MeanLatUs = float64(h.Mean()) / 1000
	row.P99LatUs = float64(h.Percentile(99)) / 1000
	row.ReplaySegments = dev.Stats().OffloadSegments

	// Phase 2 — the assigned ransomware variant, on a filesystem whose
	// clock continues from the replay.
	attackStart := ^uint64(0)
	if atk != nil {
		row.Attacked = true
		row.Role = profName + "+" + atk.Name()
		fs.Clock().AdvanceTo(end)
		rng := rand.New(rand.NewSource(int64(77 + idx)))
		if _, _, err := seedAndSnapshot(fs, rng, s); err != nil {
			return row, dev, err
		}
		// Flush the pre-attack history: anything detection flags in it is
		// a false alert, not attack coverage.
		if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
			return row, dev, err
		}
		attackStart = dev.Log().NextSeq()
		if _, err := atk.Run(fs, rng); err != nil {
			return row, dev, err
		}
	}

	// Phase 3 — final flush so detection has seen the full history.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return row, dev, err
	}

	st := dev.Stats()
	// PageOps covers every phase (replay, corpus seeding, attack): the
	// wall-clock throughput divides by a wall that spans them all.
	row.PageOps = int(st.HostWrites + st.HostReads + st.HostTrims)
	row.SimMs = float64(simclock.Max(fs.Clock().Now(), end)) / float64(simclock.Millisecond)
	row.Segments = st.OffloadSegments
	row.QueuePeak = st.OffloadQueuePeak
	row.Stalls = st.OffloadStalls
	row.WireBytes = st.OffloadBytesWire
	row.EncodeMs = float64(st.EncodeTime) / float64(simclock.Millisecond)
	row.EncodeQPeak = st.EncodeQueuePeak
	if st.OffloadSegments > 0 {
		row.AckLatUs = float64(st.OffloadAckTime) / float64(st.OffloadSegments) / 1000
	}
	row.Detected, row.OpsToAlert, row.FalseAlerts = rig.verdict(id, attackStart)
	return row, dev, nil
}

// detectedCell is a report table's detection column: "caught", "MISSED"
// for an attacked device detection never flagged, "-" for benign ones.
func detectedCell(attacked, detected bool) string {
	switch {
	case detected:
		return "caught"
	case attacked:
		return "MISSED"
	}
	return "-"
}

// RenderFleet renders the per-device table and the fleet summary.
func RenderFleet(res *FleetResult) string {
	tb := metrics.NewTable("device", "role", "records", "page ops",
		"mean lat µs", "p99 lat µs", "segs (replay/total)", "ack µs",
		"q peak", "stalls", "detected", "ops to alert", "false alerts")
	for _, r := range res.Rows {
		det := detectedCell(r.Attacked, r.Detected)
		tb.AddRow(r.Device, r.Role, r.Records, r.PageOps,
			r.MeanLatUs, r.P99LatUs,
			fmt.Sprintf("%d/%d", r.ReplaySegments, r.Segments),
			r.AckLatUs, r.QueuePeak, r.Stalls, det, r.OpsToAlert, r.FalseAlerts)
	}
	s := res.Summary
	out := ""
	if len(res.Rows) > 0 {
		out = tb.String()
	}
	out += fmt.Sprintf(
		"fleet: %d devices (%d attacked, %d caught, %d false alerts), %d page ops in %.1f ms wall\n"+
			"       %.0f page ops/s, %.0f segments/s ingested (%d segments)\n",
		s.Devices, s.Attacked, s.Caught, s.FalseAlerts, s.PageOps, s.WallMs,
		s.PageOpsPerSec, s.SegmentsPerSec, s.Segments)
	if res.Cluster == nil {
		out += fmt.Sprintf(
			"       host batch latency: async %.2f µs vs sync-offload baseline %.2f µs (%.2fx)\n",
			s.MeanLatUs, s.SyncMeanLatUs, s.OverlapSpeedup)
	} else {
		out += RenderFleetCluster(res.Cluster)
	}
	return out
}
