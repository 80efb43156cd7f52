package experiment

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The cluster half of the fleet experiment: the same per-device RSSD
// pipeline, but the fleet dials through a remote.Cluster — consistent-hash
// placement over N ingest servers sharing one durable store — instead of
// one server. Two passes:
//
//  1. Failover pass: the full fleet (half attacked) streams through the
//     cluster while one server is killed at the one-third mark of every
//     device's replay. The dead server's devices heal through the
//     placement-aware dial factory (core's redial/backoff/reconcile path),
//     detection state follows them across engines via Handoff, and the
//     pass verifies the durability contract: zero entries lost, every
//     chain verified, every attack still caught, no false alerts.
//  2. Scaling curve: a prebuilt segment trace is pushed through clusters
//     of 1, 2, 4, ... servers (same devices, fresh store per point).
//     Wall-clock numbers are reported honestly but depend on host cores;
//     the scaling claim is graded on the deterministic per-server
//     NIC/decode-lane event model (ingest.go), whose aggregate makespan
//     is the slowest server's — so the modeled speed-up is the placement
//     spread times the per-server pipeline, not a lucky thread schedule.

// fleetClusterScale tightens per-device geometry further for big fleets:
// past 64 devices the corpus and attack phases shrink so a 512-device run
// stays within one machine's memory and minutes.
func fleetClusterScale(s Scale, devices int) Scale {
	s = fleetScale(s)
	if devices > 64 {
		s.SeedFiles /= 2
		if s.SeedFiles < 10 {
			s.SeedFiles = 10
		}
		if s.MaxFilePages > 3 {
			s.MaxFilePages = 3
		}
	}
	return s
}

// clusterReplayOps scales the measured replay down with fleet size: the
// fleet-wide record count stays roughly constant, with a floor so every
// device still crosses its offload watermarks.
func clusterReplayOps(s Scale, devices int) int {
	ops := s.TraceOps // fleet-wide budget, split across devices
	if devices > 0 {
		ops /= devices
	}
	if ops < 120 {
		ops = 120
	}
	return ops
}

// FleetServerRow is one ingest server's row in the cluster report.
type FleetServerRow struct {
	Server    int
	Alive     bool
	Weight    int
	Devices   int
	Sessions  uint64
	Segments  uint64
	WireMB    float64
	QueuePeak int
	Errors    uint64
}

// FleetFailover reports the injected server kill and its cost.
type FleetFailover struct {
	KilledServer    int
	DevicesRemapped int
	Handoffs        int     // detection-state handoffs executed by OnMove
	Redials         uint64  // sessions the fleet re-established itself
	RedialAttempts  uint64  // including attempts that failed and backed off
	RedialWaitMs    float64 // simulated backoff the fleet waited out
	ResumeGap       uint64  // entries found durable-but-unacked on redial
	SegmentsLost    int     // device-acked segments missing from the store
	EntriesLost     uint64  // device-log entries missing from the store
	ChainsVerified  int
}

// FleetScalePoint is one point of the server-count scaling curve.
type FleetScalePoint struct {
	Servers      int
	Devices      int
	DecodeLanes  int // per-server decode lanes (measured and modeled)
	Segments     uint64
	WireMB       float64
	SpreadMaxMin float64 // placement spread max/min across live servers
	QueuePeak    int     // deepest per-server decode backlog
	WallMs       float64 // measured (host-core dependent)
	SegsPerSec   float64
	WireMBps     float64
	// Deterministic per-server NIC/decode-lane model over the same trace;
	// aggregate makespan is the slowest server's.
	ModelMakespanMs float64
	ModelSegsPerSec float64
	ModelWireMBps   float64
	ModelScaleUp    float64 // vs the 1-server model point
}

// FleetClusterResult is the control-plane side of a multi-server fleet run.
type FleetClusterResult struct {
	Servers      int
	Devices      int
	SpreadMaxMin float64
	ServerRows   []FleetServerRow
	Failover     FleetFailover
	Curve        []FleetScalePoint
	ScaleUp      float64 // measured segs/s, last curve point vs first
	ModelScaleUp float64 // modeled segs/s, last curve point vs first
}

// fleetCluster runs the failover pass and the scaling curve.
func fleetCluster(s Scale, devices, servers int) (*FleetResult, error) {
	s = fleetClusterScale(s, devices)
	pass, cres, err := runFleetClusterPass(s, devices, servers)
	if err != nil {
		return nil, fmt.Errorf("fleet cluster: %w", err)
	}
	curve, err := fleetScaleCurve(s, devices, servers)
	if err != nil {
		return nil, fmt.Errorf("fleet scale curve: %w", err)
	}
	cres.Curve = curve
	if len(curve) > 1 {
		first, last := curve[0], curve[len(curve)-1]
		if first.SegsPerSec > 0 {
			cres.ScaleUp = last.SegsPerSec / first.SegsPerSec
		}
		if first.ModelSegsPerSec > 0 {
			cres.ModelScaleUp = last.ModelSegsPerSec / first.ModelSegsPerSec
		}
	}
	rows := pass.rows
	if devices > 64 {
		rows = nil // keep the committed report compact at fleet scale
	}
	return &FleetResult{Rows: rows, Summary: pass.summary(), Cluster: cres}, nil
}

// runFleetClusterPass drives the full fleet through the cluster with one
// injected server kill and verifies the durability contract afterwards.
func runFleetClusterPass(s Scale, devices, servers int) (*fleetPass, *FleetClusterResult, error) {
	rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{
		Servers: servers,
		Server:  remote.ServerConfig{DecodeWorkers: 4},
	})
	defer rig.close()

	// The kill fires once every device has passed the one-third mark of
	// its replay — genuinely mid-stream for the whole fleet — and every
	// device holds at the barrier until the victim is drained, so the
	// dead server's devices must heal through the redial path to finish.
	// The last device to arrive runs the kill.
	var arrived atomic.Int64
	killDone := make(chan struct{})
	fail := &FleetFailover{KilledServer: -1}
	opts := fleetOpts{withAttacks: true, tune: remote.Profile("mem"), hold: func() {
		if arrived.Add(1) == int64(devices) {
			// Device 2 is the first attacked one (odd fleet indexes attack).
			if victim, ok := rig.cluster.Owner(min(uint64(devices), 2)); ok {
				if moves, err := rig.cluster.Kill(victim); err == nil {
					fail.KilledServer, fail.DevicesRemapped = victim, len(moves)
				}
			}
			close(killDone)
		}
		<-killDone
	}}
	pass, err := runFleetOn(rig, devices, clusterReplayOps(s, devices), opts)
	if err != nil {
		return nil, nil, err
	}
	defer pass.close()

	// The durability contract, checked device by device: everything the
	// device logged is in the store, everything the device believes was
	// acked is present as full segments, and the hash chain verifies from
	// genesis — across a server kill and every resulting redial.
	for i, dev := range pass.devs {
		st := dev.Stats()
		fail.Redials += st.Redials
		fail.RedialAttempts += st.RedialAttempts
		fail.RedialWaitMs += float64(st.RedialWaitTime) / float64(simclock.Millisecond)
		fail.ResumeGap += st.ResumeGap
		entries, segments, err := rig.audit(uint64(i+1), dev)
		if err != nil {
			return nil, nil, fmt.Errorf("device %d chain after failover: %w", i+1, err)
		}
		fail.EntriesLost += entries
		fail.SegmentsLost += segments
		fail.ChainsVerified++
	}
	fail.Handoffs = int(rig.handoffs.Load())
	if fail.EntriesLost > 0 || fail.SegmentsLost > 0 {
		// The zero-loss contract is the point of the failover design; a
		// violation fails the run (and CI) rather than hiding in a report.
		return nil, nil, fmt.Errorf("durability violated across server kill: %d segments / %d entries lost",
			fail.SegmentsLost, fail.EntriesLost)
	}

	cres := &FleetClusterResult{Servers: servers, Devices: devices, Failover: *fail}
	cres.SpreadMaxMin = spreadMaxMin(rig.cluster.Spread())
	for _, si := range rig.cluster.Servers() {
		cres.ServerRows = append(cres.ServerRows, FleetServerRow{
			Server:    si.ID,
			Alive:     si.Alive,
			Weight:    si.Weight,
			Devices:   si.Devices,
			Sessions:  si.Sessions,
			Segments:  si.Ingest.Segments,
			WireMB:    float64(si.Ingest.BytesWire) / 1e6,
			QueuePeak: si.QueuePeak,
			Errors:    si.Ingest.Errors,
		})
	}
	return pass, cres, nil
}

// spreadMaxMin reduces a device-count spread to its max/min ratio.
func spreadMaxMin(spread map[int]int) float64 {
	min, max := -1, 0
	for _, n := range spread {
		if n > max {
			max = n
		}
		if min < 0 || n < min {
			min = n
		}
	}
	if min <= 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// curveServerCounts returns the curve's x axis: powers of two up to (and
// always including) the requested server count.
func curveServerCounts(servers int) []int {
	var out []int
	for k := 1; k < servers; k *= 2 {
		out = append(out, k)
	}
	return append(out, servers)
}

// fleetScaleCurve pushes one prebuilt segment trace through clusters of
// growing server count — fresh store per point, same blobs — measuring
// wall-clock aggregate throughput and running the deterministic per-server
// NIC/decode-lane model over each point's actual placement.
func fleetScaleCurve(s Scale, devices, servers int) ([]FleetScalePoint, error) {
	segsPerDevice, pagesPerSeg := 8, 8
	if s.PageSize >= 4096 && devices <= 64 {
		segsPerDevice = 16
	}
	// Per-server decode lanes (measured and modeled alike). A small fleet
	// cannot load 8 lanes per server — one server would already be idle
	// and the curve flat by construction — so the pool shrinks until the
	// single-server point is genuinely lane-bound and server count is
	// what relieves it, the same regime a 512-device fleet puts 8 lanes in.
	curveWorkers := 8
	if devices < 16*servers {
		curveWorkers = 2
	}
	const window = 4

	traces := buildTraces(s, devices, segsPerDevice, pagesPerSeg)

	var curve []FleetScalePoint
	for _, k := range curveServerCounts(servers) {
		rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{
			Servers: k,
			Server:  remote.ServerConfig{DecodeWorkers: curveWorkers},
		})
		wall, err := rig.pushTraces(traces, window)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("curve %d servers: %w", k, err)
		}

		pt := FleetScalePoint{Servers: k, Devices: devices, DecodeLanes: curveWorkers}
		pt.WallMs = float64(wall.Microseconds()) / 1000
		for _, si := range rig.cluster.Servers() {
			pt.Segments += si.Ingest.Segments
			pt.WireMB += float64(si.Ingest.BytesWire) / 1e6
			if si.QueuePeak > pt.QueuePeak {
				pt.QueuePeak = si.QueuePeak
			}
		}
		pt.SpreadMaxMin = spreadMaxMin(rig.cluster.Spread())
		if secs := wall.Seconds(); secs > 0 {
			pt.SegsPerSec = float64(pt.Segments) / secs
			pt.WireMBps = pt.WireMB / secs
		}

		// Model: each server's NIC serializes its own devices' blobs into
		// its own decode-lane pool; the aggregate finishes when the
		// slowest server does.
		perServer := rig.ownerMetas(traces)
		makespan := 0.0
		for _, metas := range perServer {
			m := ingestModel(metas, curveWorkers, IngestNICMBps, IngestLaneMBps)
			if ms := m.MakespanMs; ms > makespan {
				makespan = ms
			}
		}
		pt.ModelMakespanMs = makespan
		if makespan > 0 {
			pt.ModelSegsPerSec = float64(pt.Segments) / (makespan / 1000)
			pt.ModelWireMBps = pt.WireMB / (makespan / 1000)
		}
		rig.close()
		curve = append(curve, pt)
	}
	if len(curve) > 0 && curve[0].ModelSegsPerSec > 0 {
		for i := range curve {
			curve[i].ModelScaleUp = curve[i].ModelSegsPerSec / curve[0].ModelSegsPerSec
		}
	}
	return curve, nil
}

// RenderFleetCluster renders the control-plane report: per-server rows,
// the failover ledger, and the scaling curve.
func RenderFleetCluster(c *FleetClusterResult) string {
	st := metrics.NewTable("server", "alive", "weight", "devices", "sessions",
		"segments", "wire MB", "q peak", "errors")
	for _, r := range c.ServerRows {
		alive := "up"
		if !r.Alive {
			alive = "KILLED"
		}
		st.AddRow(r.Server, alive, r.Weight, r.Devices, r.Sessions,
			r.Segments, r.WireMB, r.QueuePeak, r.Errors)
	}
	f := c.Failover
	out := st.String()
	out += fmt.Sprintf(
		"failover: server %d killed mid-replay; %d devices remapped, %d detection handoffs\n"+
			"          %d redials (%d attempts, %.2f ms simulated backoff), resume gap %d entries\n"+
			"          lost: %d segments, %d entries (gate: 0/0); %d chains verified from genesis\n"+
			"placement spread max/min %.3f over %d devices on %d servers\n",
		f.KilledServer, f.DevicesRemapped, f.Handoffs,
		f.Redials, f.RedialAttempts, f.RedialWaitMs, f.ResumeGap,
		f.SegmentsLost, f.EntriesLost, f.ChainsVerified,
		c.SpreadMaxMin, c.Devices, c.Servers)
	ct := metrics.NewTable("servers", "segments", "wire MB", "spread", "q peak",
		"wall ms", "segs/s", "wire MB/s", "model ms", "model segs/s", "model x")
	for _, p := range c.Curve {
		ct.AddRow(p.Servers, p.Segments, p.WireMB, p.SpreadMaxMin, p.QueuePeak,
			p.WallMs, p.SegsPerSec, p.WireMBps,
			p.ModelMakespanMs, p.ModelSegsPerSec, p.ModelScaleUp)
	}
	out += ct.String()
	lanes := 0
	if len(c.Curve) > 0 {
		lanes = c.Curve[0].DecodeLanes
	}
	out += fmt.Sprintf(
		"scale-up at %d servers: modeled %.2fx (gate: >= 3x; per-server NIC %.0f MB/s, %d lanes x %.0f MB/s), measured %.2fx on this host's cores\n",
		c.Servers, c.ModelScaleUp, IngestNICMBps, lanes, IngestLaneMBps, c.ScaleUp)
	return out
}
