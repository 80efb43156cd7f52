package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The QoS experiment quantifies what the shared-NIC scheduler buys when a
// restore storm collides with steady-state offload: a fleet where half the
// devices power-cycle and stream their images back CONCURRENTLY with the
// other half's offload pipelines and a set of synthetic lifecycle
// transfers, all charged to one arbiter. Three cohorts isolate the policy:
//
//   - uncontended: restorers only — the baseline restore latency on an
//     idle NIC.
//   - qos: the full collision under strict priority + guaranteed floors —
//     restore preempts, offload and lifecycle keep their floors.
//   - fifo: the same collision with classing disabled (proportional
//     sharing) — the no-QoS trampling the scheduler exists to prevent.
//
// The gates bind the tentpole claims: restore P99 grant-wait under
// contention stays within 2x the uncontended baseline, offload is never
// priced below its guaranteed floor, lifecycle is never starved, granted
// bytes conserve the line rate, and the FIFO baseline is measurably worse
// for restore than QoS.

// qosLifecycleBytes is one synthetic lifecycle transfer (tier migration /
// GC shipment) — deliberately large grants, the worst head-of-line case.
const qosLifecycleBytes = 1 << 20

// qosConservationSlack tolerates the cross-device simulated-clock skew in
// the aggregate-rate conservation check: devices advance independent
// clocks, so merged grant spans can overlap slightly even though every
// grant was priced within its class allocation.
const qosConservationSlack = 1.05

// QoSCohort is one measured cohort of the experiment.
type QoSCohort struct {
	Mode      string // "uncontended", "qos", "fifo"
	Restorers int
	Workers   int
	Lifecycle int

	MeanRTOms float64
	MaxRTOms  float64
	Verified  bool

	Classes   [netsim.NumClasses]netsim.QoSStats
	GrantedMB float64 // total bytes granted across classes
	SpanMs    float64 // first grant start -> last grant completion
	AggMBps   float64 // implied aggregate rate (conservation gate)
	LineMBps  float64
}

// QoSResult is the full QoS experiment report.
type QoSResult struct {
	Devices int
	Floors  [netsim.NumClasses]float64

	Uncontended QoSCohort
	QoS         QoSCohort
	FIFO        QoSCohort

	// P99Ratio is contended-QoS restore P99 grant-wait over uncontended;
	// FIFOP99Ratio the same for the FIFO baseline. The gate binds the
	// former at 2x; the latter shows what no-QoS costs.
	P99Ratio     float64
	FIFOP99Ratio float64
	// OffloadFloorMBps is the configured guarantee; OffloadMinMBps the
	// lowest allocation any offload grant actually saw under QoS.
	OffloadFloorMBps float64
	OffloadMinMBps   float64
}

// runQoSCohort runs one cohort on its own store, server, and arbiter.
func runQoSCohort(s Scale, restorers, workers, lifecycle, imagePages, uniquePages int,
	nicCfg netsim.Config, mode string) (QoSCohort, error) {
	co := QoSCohort{Mode: mode, Restorers: restorers, Workers: workers, Lifecycle: lifecycle}
	rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{NIC: nicCfg})
	defer rig.close()
	nic := rig.cluster.Server(0).NIC

	// Phase A — every device (future restorers and workers alike) writes
	// its image, checkpoints, diverges, and powers off. Setup offload runs
	// on private per-device links (cfg.NIC unset), so the shared-NIC
	// ledger measures only the contention window.
	total := restorers + workers
	devs := make([]*poweredOff, total)
	err := eachDevice(total, func(i int) (err error) {
		devs[i], err = runDedupSetup(rig, uint64(i+1), imagePages, uniquePages)
		return err
	})
	if err != nil {
		return co, fmt.Errorf("setup: %w", err)
	}
	var wallStart simclock.Time // latest power-off: the lifecycle lanes' clock origin
	for _, d := range devs {
		wallStart = max(wallStart, d.endAt)
	}

	// Phase B — contention sources come up first, so every restore grant
	// is priced with the cross-class flows already open. Workers reopen
	// on the shared NIC and loop writes + offload until the restore wave
	// completes; lifecycle lanes issue back-to-back large grants.
	var stop atomic.Bool
	var ready, bg sync.WaitGroup
	for i := 0; i < lifecycle; i++ {
		ready.Add(1)
		bg.Add(1)
		go func(i int) {
			defer bg.Done()
			f := nic.Open(netsim.ClassLifecycle, 1)
			defer f.Close()
			now := wallStart
			now = f.Grant(qosLifecycleBytes, now)
			ready.Done()
			for !stop.Load() {
				now = f.Grant(qosLifecycleBytes, now)
				time.Sleep(100 * time.Microsecond) // pace wall-clock load generation
			}
		}(i)
	}
	errs := make([]error, total)
	for i := restorers; i < total; i++ {
		ready.Add(1)
		bg.Add(1)
		go func(i int) {
			defer bg.Done()
			errs[i] = qosWorker(rig, devs[i], i, imagePages, ready.Done, &stop)
		}(i)
	}
	ready.Wait()

	// Phase C — the restore wave: every restorer streams its image back
	// concurrently, chunks sized to the NIC grant quantum. On contended
	// cohorts the restorer's own post-restore offload churn rides the
	// shared NIC too.
	contended := workers > 0 || lifecycle > 0
	err = restoreRun{Link: remote.NewRecoveryLinkOn(nic)}.restoreAll(rig, devs[:restorers], func(i int) core.Config {
		cfg := rig.deviceConfig(uint64(i+1), remote.Profile("mem"))
		if contended {
			cfg.NIC = nic
		}
		return cfg
	})
	stop.Store(true)
	bg.Wait()
	if err != nil {
		return co, err
	}
	for i := restorers; i < total; i++ {
		if errs[i] != nil {
			return co, fmt.Errorf("worker %d: %w", i+1, errs[i])
		}
	}

	co.Verified = true
	for _, d := range devs[:restorers] {
		co.Verified = co.Verified && d.verified
	}
	co.MeanRTOms, co.MaxRTOms = restoreRTO(devs[:restorers])
	co.Classes = nic.Stats()
	granted, span, mbps := nic.Conservation()
	co.GrantedMB = float64(granted) / 1e6
	co.SpanMs = float64(span) / 1e6
	co.AggMBps = mbps
	co.LineMBps = nic.LineMBps()
	return co, nil
}

// qosWorker is one contending device: it reopens d on the shared NIC and
// loops random writes with a flush every 64 until stop. It calls ready
// exactly once: after its first flush, or as it fails before that.
func qosWorker(rig *fleetRig, d *poweredOff, i, imagePages int, ready func(), stop *atomic.Bool) (err error) {
	ready = sync.OnceFunc(ready)
	defer ready()
	cfg := rig.deviceConfig(uint64(i+1), remote.Profile("mem"))
	cfg.NIC = rig.cluster.Server(0).NIC
	client, err := cfg.Dial()
	if err != nil {
		return err
	}
	defer client.Close()
	dev, err := core.Reopen(cfg, d.dev.FTL().Device(), client)
	if err != nil {
		return err
	}
	defer dev.Close()
	rng := rand.New(rand.NewSource(int64(7000 + i)))
	page := make([]byte, rig.s.PageSize)
	at := d.endAt
	step := func(j int) (err error) {
		rng.Read(page)
		if at, err = dev.Write(uint64(rng.Intn(imagePages)), page, at); err == nil && j%64 == 63 {
			at, err = dev.OffloadNow(at)
		}
		return err
	}
	// The first burst and flush open this device's offload flow on the
	// shared NIC before any restore starts.
	for j := 0; j < 64; j++ {
		if err := step(j); err != nil {
			return err
		}
	}
	ready()
	for j := 0; !stop.Load(); j++ {
		if err := step(j); err != nil {
			return err
		}
	}
	_, err = dev.OffloadNow(at)
	return err
}

// QoSRun runs the shared-NIC QoS experiment: a restore storm against
// steady-state offload and lifecycle traffic, under strict-priority QoS
// and under the FIFO baseline, gated against an uncontended control.
func QoSRun(s Scale, devices int, nicCfg netsim.Config) (*QoSResult, error) {
	if devices <= 0 {
		devices = 64
	}
	s = fleetScale(s)

	// Image sizing: bounded well under the dedup experiment's — three
	// cohorts re-run setup, and the contention window is what's measured,
	// not the image haul.
	imagePages := logicalPages(s) / 4
	if cap := s.TraceOps / 16; imagePages > cap {
		imagePages = cap
	}
	if imagePages < 64 {
		imagePages = 64
	}
	uniquePages := imagePages / dedupDupFactor
	if uniquePages < 1 {
		uniquePages = 1
	}

	restorers := devices / 2
	if restorers < 1 {
		restorers = 1
	}
	workers := devices - restorers
	lifecycle := devices / 8
	if lifecycle < 2 {
		lifecycle = 2
	}

	strictCfg := nicCfg
	strictCfg.FIFO = false
	fifoCfg := nicCfg
	fifoCfg.FIFO = true

	unc, err := runQoSCohort(s, restorers, 0, 0, imagePages, uniquePages, strictCfg, "uncontended")
	if err != nil {
		return nil, fmt.Errorf("uncontended cohort: %w", err)
	}
	qos, err := runQoSCohort(s, restorers, workers, lifecycle, imagePages, uniquePages, strictCfg, "qos")
	if err != nil {
		return nil, fmt.Errorf("qos cohort: %w", err)
	}
	fifo, err := runQoSCohort(s, restorers, workers, lifecycle, imagePages, uniquePages, fifoCfg, "fifo")
	if err != nil {
		return nil, fmt.Errorf("fifo cohort: %w", err)
	}

	floors := netsim.New(strictCfg).Floors()
	line := qos.LineMBps
	res := &QoSResult{
		Devices: devices, Floors: floors,
		Uncontended: unc, QoS: qos, FIFO: fifo,
		OffloadFloorMBps: floors[netsim.ClassOffload] * line,
		OffloadMinMBps:   qos.Classes[netsim.ClassOffload].MinAllocMBps,
	}
	uncP99 := unc.Classes[netsim.ClassRestore].WaitP99Ms
	if uncP99 > 0 {
		res.P99Ratio = qos.Classes[netsim.ClassRestore].WaitP99Ms / uncP99
		res.FIFOP99Ratio = fifo.Classes[netsim.ClassRestore].WaitP99Ms / uncP99
	}

	// Hard gates — the tentpole claims, enforced on every run.
	if !unc.Verified || !qos.Verified || !fifo.Verified {
		return res, fmt.Errorf("qos gate: a restored image was not page-identical")
	}
	if qos.Classes[netsim.ClassRestore].Throttled == 0 {
		return res, fmt.Errorf("qos gate: no restore grant was priced under cross-class contention (collision not exercised)")
	}
	if qos.Classes[netsim.ClassOffload].Grants == 0 || qos.Classes[netsim.ClassLifecycle].Grants == 0 {
		return res, fmt.Errorf("qos gate: a contending class issued no grants (offload %d, lifecycle %d)",
			qos.Classes[netsim.ClassOffload].Grants, qos.Classes[netsim.ClassLifecycle].Grants)
	}
	if res.P99Ratio > 2.0 {
		return res, fmt.Errorf("qos gate: contended restore P99 is %.2fx uncontended (limit 2x)", res.P99Ratio)
	}
	if min := res.OffloadMinMBps; min < res.OffloadFloorMBps*0.999 {
		return res, fmt.Errorf("qos gate: offload fell below its guaranteed floor (%.1f < %.1f MBps)",
			min, res.OffloadFloorMBps)
	}
	if fl, min := floors[netsim.ClassLifecycle]*line, qos.Classes[netsim.ClassLifecycle].MinAllocMBps; min < fl*0.999 {
		return res, fmt.Errorf("qos gate: lifecycle fell below its guaranteed floor (%.1f < %.1f MBps)", min, fl)
	}
	for _, co := range []QoSCohort{unc, qos, fifo} {
		if co.AggMBps > co.LineMBps*qosConservationSlack {
			return res, fmt.Errorf("qos gate: %s cohort granted %.1f MBps aggregate on a %.0f MBps line",
				co.Mode, co.AggMBps, co.LineMBps)
		}
	}
	if fifo.Classes[netsim.ClassRestore].WaitP99Ms < qos.Classes[netsim.ClassRestore].WaitP99Ms {
		return res, fmt.Errorf("qos gate: FIFO restore P99 (%.3f ms) beat QoS (%.3f ms) — priority classing lost to the baseline",
			fifo.Classes[netsim.ClassRestore].WaitP99Ms, qos.Classes[netsim.ClassRestore].WaitP99Ms)
	}
	return res, nil
}

// qosStatsTable renders a per-class ledger snapshot.
func qosStatsTable(stats [netsim.NumClasses]netsim.QoSStats) *metrics.Table {
	t := metrics.NewTable("class", "grants", "MB", "flows_peak",
		"wait_p50_ms", "wait_p99_ms", "throttled", "min_alloc_MBps")
	for _, st := range stats {
		t.AddRow(st.Class, st.Grants,
			fmt.Sprintf("%.1f", float64(st.BytesGranted)/1e6), st.QueuePeak,
			fmt.Sprintf("%.3f", st.WaitP50Ms), fmt.Sprintf("%.3f", st.WaitP99Ms),
			st.Throttled, fmt.Sprintf("%.1f", st.MinAllocMBps))
	}
	return t
}

// RenderQoS renders the QoS experiment report.
func RenderQoS(res *QoSResult) string {
	out := fmt.Sprintf("qos: %d devices (%d restorers, %d workers, %d lifecycle lanes), floors offload %.0f%% / lifecycle %.0f%%\n",
		res.Devices, res.QoS.Restorers, res.QoS.Workers, res.QoS.Lifecycle,
		res.Floors[netsim.ClassOffload]*100, res.Floors[netsim.ClassLifecycle]*100)
	for _, co := range []QoSCohort{res.Uncontended, res.QoS, res.FIFO} {
		out += fmt.Sprintf("%s: restore RTO mean %.2f / max %.2f ms; %.1f MB granted over %.2f ms (%.1f of %.0f MBps line)\n",
			co.Mode, co.MeanRTOms, co.MaxRTOms, co.GrantedMB, co.SpanMs, co.AggMBps, co.LineMBps)
		out += qosStatsTable(co.Classes).String()
	}
	out += fmt.Sprintf("restore P99 grant-wait: qos %.2fx uncontended (gate 2x), fifo %.2fx\n",
		res.P99Ratio, res.FIFOP99Ratio)
	out += fmt.Sprintf("offload floor: guaranteed %.1f MBps, lowest granted allocation %.1f MBps\n",
		res.OffloadFloorMBps, res.OffloadMinMBps)
	return out
}
