package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/workload"
)

// fleetRig is the one device-and-server rig every multi-device experiment
// runs on: a remote.Cluster over one store, with one detection engine per
// server. It is a cluster even for the single-server experiments
// (Servers: 1), where owner-routed detection is exactly engine.Attach on
// the store, so every device dials, redials and restores through the same
// placement-aware path whatever the server count.
type fleetRig struct {
	s        Scale
	store    *remote.Store
	cluster  *remote.Cluster
	engines  []*detect.Engine
	handoffs atomic.Int64 // detection-state handoffs run by OnMove
}

// newFleetRig builds the cluster cfg sizes over store, enrolling every
// device with PSK. The caller closes the rig.
func newFleetRig(s Scale, store *remote.Store, cfg remote.ClusterConfig) *fleetRig {
	cfg.PSK = PSK
	r := &fleetRig{s: s, store: store, cluster: remote.NewCluster(store, cfg)}
	n := max(cfg.Servers, 1)
	for i := 0; i < n; i++ {
		r.engines = append(r.engines, detect.NewEngine(detectConfig(s)))
	}
	// Segments score on the current owner's engine. OnMove runs under the
	// cluster lock, so a moved device's window state reaches its new
	// engine before routing can observe the new owner.
	r.cluster.OnMove = func(dev uint64, from, to int) {
		if from >= 0 && from < n && to >= 0 && to < n {
			r.engines[from].Handoff(dev, r.engines[to])
			r.handoffs.Add(1)
		}
	}
	store.Subscribe(func(dev uint64, seg *oplog.Segment) {
		owner, ok := r.cluster.Owner(dev)
		if !ok || owner < 0 || owner >= n {
			owner = 0
		}
		r.engines[owner].Observe(dev, seg.Entries)
	})
	return r
}

func (r *fleetRig) close() { r.cluster.Close() }

// deviceConfig is one fleet device: the experiment geometry, dialing and
// redialing through the cluster, and tune's offload watermarks and staging
// depth. Fleet devices drain eagerly (the tier profiles' watermarks sit
// well below the solo-device defaults): a device backing a shared server
// keeps its retention backlog small, which also keeps the offload
// pipeline continuously busy. High-latency tiers stage deeper so their
// long acks stay hidden behind host I/O.
func (r *fleetRig) deviceConfig(id uint64, tune remote.BackendProfile) core.Config {
	cfg := core.DefaultConfig()
	cfg.FTL = r.s.ftlConfig()
	cfg.DeviceID = id
	cfg.Dial = r.cluster.DialFunc(id)
	cfg.OffloadHighWater = tune.OffloadHighWater
	cfg.OffloadLowWater = tune.OffloadLowWater
	cfg.OffloadQueueDepth = tune.OffloadQueueDepth
	return cfg
}

// dialInOrder dials devices 1..n one at a time, in device-ID order, so
// placement is a function of the fleet alone: bounded-load placement is
// arrival-ordered, and concurrent first dials would let goroutine
// scheduling pick each device's server. On a failed dial it closes the
// sessions already open.
func (r *fleetRig) dialInOrder(n int) ([]*remote.Client, error) {
	clients := make([]*remote.Client, n)
	for d := range clients {
		cl, err := r.cluster.Dial(uint64(d + 1))
		if err != nil {
			for _, c := range clients[:d] {
				c.Close()
			}
			return nil, fmt.Errorf("dial device %d: %w", d+1, err)
		}
		clients[d] = cl
	}
	return clients, nil
}

// verdict scores one device's alerts across every engine (failover or
// rebalancing may split its history): detected is any alert at or after
// attackStart, opsToAlert the earliest one's distance from it, and every
// earlier alert is a false alert. A device never attacked passes ^0.
func (r *fleetRig) verdict(id, attackStart uint64) (detected bool, opsToAlert uint64, falseAlerts int) {
	for _, e := range r.engines {
		for _, a := range e.AlertsFor(id) {
			if a.AtSeq < attackStart {
				falseAlerts++
			} else if !detected || a.AtSeq-attackStart < opsToAlert {
				detected, opsToAlert = true, a.AtSeq-attackStart
			}
		}
	}
	return detected, opsToAlert, falseAlerts
}

// audit checks one device's durability contract against the store:
// entries the device logged and segments it saw acked that the store does
// not hold, and its evidence chain verified from genesis.
func (r *fleetRig) audit(id uint64, dev *core.RSSD) (entriesLost uint64, segmentsLost int, err error) {
	head := r.store.Head(id).NextSeq
	if want := dev.Log().NextSeq(); head < want {
		entriesLost = want - head
	}
	if acked, stored := dev.Stats().OffloadSegments, uint64(r.store.DeviceStats(id).Segments); acked > stored {
		segmentsLost = int(acked - stored)
	}
	return entriesLost, segmentsLost, oplog.VerifyChain(r.store.Entries(id, 0, head), [oplog.HashSize]byte{})
}

// eachDevice runs fn for fleet indexes 0..n-1 concurrently, waits for all
// of them, and returns the lowest-indexed failure naming its device.
func eachDevice(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("device %d: %w", i+1, err)
		}
	}
	return nil
}

// fleetAttack is the ransomware variant fleet index i runs: odd indexes
// attack, cycling through fleetAttacks; even ones stay benign (nil).
func fleetAttack(i int) attack.Attack {
	if i%2 == 0 {
		return nil
	}
	return makeAttack(fleetAttacks[(i/2)%len(fleetAttacks)])
}

// fleetGenerator is fleet index idx's benign replay workload: the profile
// cycled from fleetProfiles and its generator, seeded seed+idx.
func fleetGenerator(s Scale, dev *core.RSSD, idx int, seed int64) (string, *workload.Generator, error) {
	name := fleetProfiles[idx%len(fleetProfiles)]
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return name, nil, fmt.Errorf("unknown workload %q", name)
	}
	return name, workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), seed+int64(idx)), nil
}

// logicalPages is the host-visible page count of one experiment device.
func logicalPages(s Scale) int {
	cfg := core.DefaultConfig()
	cfg.FTL = s.ftlConfig()
	return int(core.New(cfg, nil).LogicalPages())
}

// poolMark is the bufpool outstanding-buffer gauge at one instant, with
// the pooled page buffers a device set's NAND arrays held then: the one
// legitimate long-lived pool consumer the leak gates net out. A restore
// reopens over the same arrays, so a mark spans power cycles.
type poolMark struct {
	gauge bufpool.Gauge
	flash []*nand.Device
	held  int64
}

func markPool(devs []*core.RSSD) poolMark {
	m := poolMark{gauge: bufpool.Outstanding()}
	for _, d := range devs {
		m.flash = append(m.flash, d.FTL().Device())
	}
	m.held = m.residency()
	return m
}

func (m poolMark) residency() int64 {
	var n int64
	for _, f := range m.flash {
		n += f.HeldPageBufs()
	}
	return n
}

// drift is how far the gauge moved since the mark beyond the change in
// NAND residency: anything but zero is a leak.
func (m poolMark) drift() int64 {
	return bufpool.Outstanding().Sub(m.gauge).Total() - (m.residency() - m.held)
}

// segmentTrace is one device's prebuilt chained segment trace: the
// codec-framed wire blobs, each blob's chain end, and its logical
// (marshal) size.
type segmentTrace struct {
	blobs    [][]byte
	lastSeqs []uint64
	logical  []int
}

// buildTraces builds the ingestSegments trace of devices 1..n up front, so
// a measured push window is pure ingest.
func buildTraces(s Scale, n, segs, pagesPerSeg int) []segmentTrace {
	traces := make([]segmentTrace, n)
	for d := range traces {
		traces[d] = ingestSegments(s, uint64(d+1), segs, pagesPerSeg)
	}
	return traces
}

// pushTraces dials devices 1..len(traces) in ID order, then pushes every
// trace concurrently with window segments in flight per session, and
// returns the wall time of the push.
func (r *fleetRig) pushTraces(traces []segmentTrace, window int) (time.Duration, error) {
	clients, err := r.dialInOrder(len(traces))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = eachDevice(len(traces), func(d int) error {
		defer clients[d].Close()
		return clients[d].PushSegmentBlobs(traces[d].blobs, traces[d].lastSeqs, window)
	})
	return time.Since(start), err
}

// ownerMetas lays the pushed traces out per owning server in round-robin
// wire order (sessions interleave; round-robin is the fair approximation)
// for the NIC/decode-lane model.
func (r *fleetRig) ownerMetas(traces []segmentTrace) map[int][]ingestBlobMeta {
	owners := make([]int, len(traces))
	for d := range traces {
		owners[d], _ = r.cluster.Owner(uint64(d + 1))
	}
	out := map[int][]ingestBlobMeta{}
	for i := range traces[0].blobs {
		for d, tr := range traces {
			out[owners[d]] = append(out[owners[d]], ingestBlobMeta{
				device: d + 1, wire: len(tr.blobs[i]), logical: tr.logical[i]})
		}
	}
	return out
}
