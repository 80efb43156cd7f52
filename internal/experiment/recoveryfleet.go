package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The fleet recovery experiment is the paper's trusted post-attack
// recovery claim at fleet scale: N devices run their workloads, half are
// hit by ransomware variants, streaming detection catches the attacks —
// and then every device power-cycles and restores its pre-attack image
// CONCURRENTLY from the one storage server. Restores ride the chunked,
// codec-framed image stream through a shared-bandwidth recovery link
// model (the server NIC split per-session fair share), one device's
// recovery session is deliberately cut mid-stream to prove resume-not-
// restart, and after the restore an offload outage exercises the redial
// path while the retention backlog drains. Every restored image is
// verified page-identical against the pre-attack snapshot.

// RecoveryDeviceRow reports one device of the recovery fleet.
type RecoveryDeviceRow struct {
	Device      uint64
	Role        string // workload profile, "+<attack>" when attacked
	Attacked    bool
	Detected    bool
	FalseAlerts int

	SnapshotPages int  // pages verified against the pre-attack snapshot
	Verified      bool // every snapshot page read back identical

	RTOms             float64 // simulated restore span (power-on to restored)
	RestoredPages     int
	ZeroedPages       int
	KeptPages         int
	Chunks            int
	Resumes           int // mid-restore disconnects survived (resumed, not restarted)
	RestoreWireMiB    float64
	RestoreLogicalMiB float64
	LiteralPages      int    // streamed pages that carried a full payload
	RefPages          int    // streamed pages that arrived as hash references
	AnchorSeq         uint64 // checkpoint sequence the delta diffed against (0: full)

	BacklogPages int     // retention backlog right after restore
	Redials      uint64  // offload sessions re-established after the outage
	ResumeGap    uint64  // entries adopted from FetchHead instead of re-shipped
	DrainMs      float64 // simulated time to drain the backlog across the outage
}

// RecoverySummary aggregates the recovery fleet run.
type RecoverySummary struct {
	Devices        int
	Attacked       int
	Caught         int
	FalseAlerts    int
	AllVerified    bool
	ChainsVerified bool // every device's remote evidence chain verified end to end

	MeanRTOms    float64
	MaxRTOms     float64
	RestoreGBps  float64 // aggregate logical restore bytes / max RTO (concurrent restores)
	WireMiB      float64
	LogicalMiB   float64
	WireRatio    float64 // logical / wire: the codec working for recovery traffic
	Resumes      int
	PeakSessions int // most devices restoring at once (recovery link)
	TotalRedials uint64
	MaxDrainMs   float64

	// Shared-NIC QoS ledger: restores, the post-restore offload drain, and
	// any lifecycle traffic all rode one arbiter. QoS false means the run
	// used the FIFO (classless) baseline.
	QoS      bool
	NICStats [netsim.NumClasses]netsim.QoSStats

	// Dedup ledger: pages by wire form across the fleet, the derived hit
	// rate, and the store-side content dedup.
	LiteralPages     int
	RefPages         int
	DedupHitRate     float64 // refs / (refs + literals) on the restore wire
	StoreUniquePages int     // distinct page contents the store holds
	StoreTotalRefs   int64   // logical page versions referencing them
	StoreHitRate     float64 // fraction of versions served by an existing copy
}

// RecoveryFleetResult is the full recovery fleet report.
type RecoveryFleetResult struct {
	Rows    []RecoveryDeviceRow
	Summary RecoverySummary
}

// FleetRecovery runs the fleet power-cycle recovery scenario. Restores
// ride the content-addressed path: hash-reference chunks
// resolved from a device-side cache plus a checkpoint-anchored delta that
// streams only pages touched since the pre-attack checkpoint. nicCfg
// sizes the server's shared-NIC QoS arbiter, which both the restore
// streams and the post-restore offload drain are charged to (zero value:
// netsim defaults — strict priority, standard floors; FIFO true runs the
// classless baseline).
func FleetRecovery(s Scale, devices int, nicCfg netsim.Config) (*RecoveryFleetResult, error) {
	if devices <= 0 {
		devices = 8
	}
	s = fleetScale(s)
	rig := newFleetRig(s, remote.NewStore(remote.NewMemStore()), remote.ClusterConfig{NIC: nicCfg})
	defer rig.close()
	nic := rig.cluster.Server(0).NIC
	link := remote.NewRecoveryLinkOn(nic) // restore class on the shared NIC

	// The mid-restore disconnect victim: an attacked device when there is
	// one (odd indexes attack), else the only device.
	chokeIdx := 0
	if devices > 1 {
		chokeIdx = 1
	}

	// Phase A — workloads + attacks + streaming detection, concurrently.
	rows := make([]RecoveryDeviceRow, devices)
	devs := make([]*poweredOff, devices)
	err := eachDevice(devices, func(i int) (err error) {
		devs[i], err = runRecoverySetup(rig, i, &rows[i])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// Phase B/C — power-cycle all N, then reopen + concurrent streamed
	// restore + verify + outage drain. The barrier above means every
	// device starts recovering at once: this is the fleet-wide incident.
	// The outstanding-buffer gauge brackets the whole incident: it may
	// move only by the pooled pages the surviving NAND arrays hold.
	mark := markPool(poweredDevs(devs))
	// Restore-start barrier: no device streams until every device's first
	// restore session is dialed, so the link's peak-sessions gauge reads
	// the fleet size structurally — not by scheduling luck on a loaded
	// host. The deferred call keeps a pre-dial failure from wedging the
	// survivors at the barrier.
	var restoreGate sync.WaitGroup
	restoreGate.Add(devices)
	err = eachDevice(devices, func(i int) error {
		arrive := sync.OnceFunc(restoreGate.Done)
		defer arrive()
		// The reopened device's offload drain rides the same shared NIC the
		// restore streams do — that cross-class traffic is what the QoS
		// arbiter exists to schedule.
		cfg := rig.deviceConfig(uint64(i+1), remote.Profile("mem"))
		cfg.NIC = nic
		rr := restoreRun{Link: link, ChunkPages: 16, Dedup: true, Delta: true, Choke: i == chokeIdx,
			Gate: func() {
				arrive()
				restoreGate.Wait()
			}}
		return runRecoveryRestore(rig, rr, cfg, devs[i], &rows[i])
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if drift := mark.drift(); drift != 0 {
		return nil, fmt.Errorf(
			"bufpool outstanding-buffer gauge drifted %+d beyond NAND residency across the fleet recovery", drift)
	}

	sum := RecoverySummary{
		Devices: devices, AllVerified: true, PeakSessions: link.PeakSessions(),
		ChainsVerified: true,
		QoS:            !nic.FIFO(), NICStats: nic.Stats(),
	}
	// Every device's remote evidence chain must still verify end to end
	// after the restore churn — dedup interning must never disturb the
	// chain the rollback is trusted on.
	for i, d := range devs {
		if _, _, err := rig.audit(uint64(i+1), d.dev); err != nil {
			sum.ChainsVerified = false
		}
	}
	var logicalBytes uint64
	for _, d := range devs {
		logicalBytes += d.rep.BytesLogical
	}
	sum.MeanRTOms, sum.MaxRTOms = restoreRTO(devs)
	for i := range rows {
		r := &rows[i]
		if r.Attacked {
			sum.Attacked++
			if r.Detected {
				sum.Caught++
			}
		}
		sum.FalseAlerts += r.FalseAlerts
		if !r.Verified {
			sum.AllVerified = false
		}
		sum.WireMiB += r.RestoreWireMiB
		sum.LogicalMiB += r.RestoreLogicalMiB
		sum.Resumes += r.Resumes
		sum.TotalRedials += r.Redials
		if r.DrainMs > sum.MaxDrainMs {
			sum.MaxDrainMs = r.DrainMs
		}
		sum.LiteralPages += r.LiteralPages
		sum.RefPages += r.RefPages
	}
	if total := sum.LiteralPages + sum.RefPages; total > 0 {
		sum.DedupHitRate = float64(sum.RefPages) / float64(total)
	}
	ds := rig.store.Dedup()
	sum.StoreUniquePages = ds.UniquePages
	sum.StoreTotalRefs = ds.TotalRefs
	sum.StoreHitRate = ds.HitRate()
	if sum.MaxRTOms > 0 {
		sum.RestoreGBps = float64(logicalBytes) / (sum.MaxRTOms / 1e3) / 1e9
	}
	if sum.WireMiB > 0 {
		sum.WireRatio = sum.LogicalMiB / sum.WireMiB
	}
	return &RecoveryFleetResult{Rows: rows, Summary: sum}, nil
}

// runRecoverySetup drives one device up to the power cycle: benign
// replay, pre-attack snapshot + flush, then the assigned attack (or more
// benign churn, so benign devices also have real rollback work), a final
// flush, and the detection verdict.
func runRecoverySetup(rig *fleetRig, idx int, row *RecoveryDeviceRow) (*poweredOff, error) {
	s := rig.s
	id := uint64(idx + 1)
	cfg := rig.deviceConfig(id, remote.Profile("mem"))
	client, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	dev := core.New(cfg, client)
	defer dev.Close()
	fs := host.NewFlatFS(dev, simclock.NewClock())
	profName, g, err := fleetGenerator(s, dev, idx, 4000)
	*row = RecoveryDeviceRow{Device: id, Role: profName}
	if err != nil {
		return nil, err
	}
	replayOps := max(s.TraceOps/16, 250)
	end, err := replay(dev, g, replayOps, 0, 0, false, nil)
	if err != nil {
		return nil, err
	}
	fs.Clock().AdvanceTo(end)

	// Pre-attack snapshot: seed the corpus, flush everything remote, and
	// remember the rollback point plus the exact page contents.
	rng := rand.New(rand.NewSource(int64(177 + idx)))
	snap, extents, err := seedAndSnapshot(fs, rng, s)
	if err != nil {
		return nil, err
	}
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	// Checkpoint at the snapshot: the delta restore anchors here and
	// streams only pages the attack (or churn) touched afterwards.
	if _, err := dev.CheckpointNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	d := &poweredOff{dev: dev, cut: dev.Log().NextSeq(), want: expectedPages(snap, extents, s.PageSize)}
	row.SnapshotPages = len(d.want)

	if atk := fleetAttack(idx); atk != nil {
		row.Attacked = true
		row.Role = profName + "+" + atk.Name()
		if _, err := atk.Run(fs, rng); err != nil {
			return nil, err
		}
	} else {
		// Benign post-snapshot churn: legitimate overwrites the drill's
		// fleet-wide rollback will discard, so benign devices restore real
		// work too (and must stay false-alert free doing it).
		at, err := replay(dev, g, replayOps/2, fs.Clock().Now(), 0, true, nil)
		if err != nil {
			return nil, err
		}
		fs.Clock().AdvanceTo(at)
	}

	// Final flush so streaming detection has the full history before the
	// power cycle.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	row.Detected, _, row.FalseAlerts = rig.verdict(id, d.cut)
	d.endAt = fs.Clock().Now()
	return d, nil
}

// runRecoveryRestore is one device's recovery: reopen over the surviving
// flash, stream-restore the pre-attack image (resuming through a cut link
// when choked), verify page-identical, then drain the restore backlog
// across a simulated offload outage via the redial path.
func runRecoveryRestore(rig *fleetRig, rr restoreRun, cfg core.Config, d *poweredOff, row *RecoveryDeviceRow) error {
	rd, err := rr.run(rig, cfg, d)
	if err != nil {
		return err
	}
	dev, at, rep := rd.dev, rd.at, d.rep
	defer dev.Close()

	row.RTOms = float64(rep.RTO) / 1e6
	row.RestoredPages = rep.PagesRestored
	row.ZeroedPages = rep.PagesZeroed
	row.KeptPages = rep.PagesKept
	row.Chunks = rep.Chunks
	row.Resumes = rep.Resumes
	row.RestoreWireMiB = float64(rep.BytesWire) / float64(1<<20)
	row.RestoreLogicalMiB = float64(rep.BytesLogical) / float64(1<<20)
	row.LiteralPages = rep.PagesLiteral
	row.RefPages = rep.PagesRef
	row.AnchorSeq = rep.Anchor
	if rep.Anchor == 0 {
		return fmt.Errorf("dedup restore found no checkpoint anchor")
	}
	row.Verified = d.verified
	row.BacklogPages = dev.Stats().RetainedNow

	// Simulated outage: the offload session dies with restore backlog
	// still retained; the engine must redial and drain it.
	rd.client.Close()
	drainStart := at
	at, err = dev.OffloadNow(at)
	if err != nil {
		return fmt.Errorf("backlog drain: %w", err)
	}
	row.DrainMs = float64(at.Sub(drainStart)) / 1e6
	st := dev.Stats()
	row.Redials = st.Redials
	row.ResumeGap = st.ResumeGap
	if st.LastOffloadError != "" {
		return fmt.Errorf("sticky offload error after drain: %s", st.LastOffloadError)
	}
	return nil
}

// RenderFleetRecovery renders the per-device table and the summary.
func RenderFleetRecovery(res *RecoveryFleetResult) string {
	tb := metrics.NewTable("device", "role", "detected", "RTO ms", "restored/zero/kept",
		"chunks", "resumes", "wire MiB", "logical MiB", "verified", "backlog", "redials", "gap", "drain ms")
	for _, r := range res.Rows {
		det := detectedCell(r.Attacked, r.Detected)
		ver := "OK"
		if !r.Verified {
			ver = "MISMATCH"
		}
		tb.AddRow(r.Device, r.Role, det, r.RTOms,
			fmt.Sprintf("%d/%d/%d", r.RestoredPages, r.ZeroedPages, r.KeptPages),
			r.Chunks, r.Resumes, r.RestoreWireMiB, r.RestoreLogicalMiB,
			ver, r.BacklogPages, r.Redials, r.ResumeGap, r.DrainMs)
	}
	s := res.Summary
	verified := "all verified page-identical"
	if !s.AllVerified {
		verified = "VERIFICATION FAILED"
	}
	chains := "chains verified"
	if !s.ChainsVerified {
		chains = "CHAIN VERIFICATION FAILED"
	}
	out := tb.String() + fmt.Sprintf(
		"recovery: %d devices (%d attacked, %d caught, %d false alerts), %s, %s\n"+
			"          RTO mean %.2f ms / max %.2f ms, aggregate restore %.3f GB/s over %d concurrent sessions\n"+
			"          restore wire %.2f MiB vs logical %.2f MiB (%.2fx codec), %d mid-stream resumes\n"+
			"          outage drain: %d redials, max %.2f ms backlog-drain\n",
		s.Devices, s.Attacked, s.Caught, s.FalseAlerts, verified, chains,
		s.MeanRTOms, s.MaxRTOms, s.RestoreGBps, s.PeakSessions,
		s.WireMiB, s.LogicalMiB, s.WireRatio, s.Resumes,
		s.TotalRedials, s.MaxDrainMs)
	out += fmt.Sprintf(
		"          dedup: %d literal + %d ref pages (%.0f%% wire hit rate), store %d unique / %d refs (%.0f%% content dedup)\n",
		s.LiteralPages, s.RefPages, s.DedupHitRate*100,
		s.StoreUniquePages, s.StoreTotalRefs, s.StoreHitRate*100)
	mode := "strict-priority qos"
	if !s.QoS {
		mode = "fifo baseline"
	}
	out += "shared NIC (" + mode + "):\n" + qosStatsTable(s.NICStats).String()
	return out
}
