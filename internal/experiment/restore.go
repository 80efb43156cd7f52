package experiment

import (
	"bytes"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/nvmeoe"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// restoreRun is the one power-on restore harness every fleet experiment
// drives its restores through (recovery, dedup, qos, soak): the reopen
// over the surviving flash, the mid-stream choke injection, the streamed
// RestoreImage call charged to the recovery link's QoS arbiter, and the
// page-identical verification. Every session dials through the rig's
// cluster, so in the soak restore sessions pass the fault injector's
// WrapConn like any other.
type restoreRun struct {
	// Link is the restore-class charge point on the NIC arbiter (private
	// or shared — the caller decides by how it builds the link).
	Link *remote.RecoveryLink
	// ChunkPages bounds pages per streamed chunk; 0 sizes chunks to the
	// NIC grant quantum for the device's page size.
	ChunkPages int
	Dedup      bool // hash-reference chunks
	Delta      bool // checkpoint-anchored delta stream
	// Choke kills the first recovery session mid-stream so the restorer
	// must resume (not restart) on a fresh session.
	Choke bool
	// Gate, when set, is called once after this device's first restore
	// session dials — inside the RestoreImage link-session bracket. A
	// fleet experiment passes a barrier here so every device is provably
	// mid-restore at once (the link's peak-sessions gauge reads the fleet
	// size by construction, not by scheduling luck).
	Gate func()
}

// poweredOff is one device across its power cycle: the device as it was
// at power-off (closed; its flash survives), the rollback cut, the page
// contents expected there, and the device clock at power-off. run fills
// in the restore's report and verdict.
type poweredOff struct {
	dev      *core.RSSD
	cut      uint64
	want     map[uint64][]byte
	endAt    simclock.Time
	rep      core.RestoreReport
	verified bool // every want page read back identical
}

// poweredDevs is the devices of a cohort, for the pool gauge's NAND
// residency (the flash a restore reopens over is the same array).
func poweredDevs(devs []*poweredOff) []*core.RSSD {
	out := make([]*core.RSSD, len(devs))
	for i, d := range devs {
		out[i] = d.dev
	}
	return out
}

// restoredDevice is the powered-on device a run hands back. The caller
// owns dev and client and closes both (the recovery experiment keeps them
// open for its post-restore outage drain).
type restoredDevice struct {
	dev    *core.RSSD
	client *remote.Client
	at     simclock.Time
}

// run reopens d over its surviving flash with cfg, stream-restores the
// image at d.cut, and verifies it page-identical against d.want.
func (rr restoreRun) run(rig *fleetRig, cfg core.Config, d *poweredOff) (*restoredDevice, error) {
	id := cfg.DeviceID
	dial := cfg.Dial // the reopened device redials dead offload sessions itself
	client, err := dial()
	if err != nil {
		return nil, err
	}
	dev, err := core.Reopen(cfg, d.dev.FTL().Device(), client)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("reopen: %w", err)
	}
	fail := func(err error) (*restoredDevice, error) {
		dev.Close()
		client.Close()
		return nil, err
	}

	// The choked device's first recovery session dies mid-stream: the
	// restorer must resume from its cursor on a fresh session. The gate
	// fires after the first session that dials.
	dials, gated := 0, rr.Gate == nil
	restoreDial := func() (c *remote.Client, err error) {
		if dials++; rr.Choke && dials == 1 {
			owner, _ := rig.cluster.Owner(id) // placed by the reopen's dial
			dc, sc := net.Pipe()
			rig.cluster.Server(owner).Accept(sc)
			// Handshake (2 reads) + one 3-read chunk frame: the link
			// dies with the first chunk applied and the rest unsent.
			c, err = remote.Dial(remote.NewChokeConn(dc, 5), PSK, id)
		} else {
			c, err = dial()
		}
		if err == nil && !gated {
			gated = true
			rr.Gate()
		}
		return c, err
	}

	chunkPages := rr.ChunkPages
	if chunkPages == 0 {
		chunkPages = int(nvmeoe.ChunkPagesForQuantum(dev.FTL().PageSize()))
	}
	at, rep, err := dev.RestoreImage(d.cut, core.RestoreOptions{
		Dial:       restoreDial,
		Link:       rr.Link,
		ChunkPages: chunkPages,
		Dedup:      rr.Dedup,
		Delta:      rr.Delta,
	}, d.endAt)
	if err != nil {
		return fail(fmt.Errorf("restore: %w", err))
	}
	if rr.Choke && rep.Resumes == 0 {
		return fail(fmt.Errorf("choked device restored without a resume (disconnect not exercised)"))
	}

	d.rep, d.verified = rep, true
	for lpn, w := range d.want {
		got, _, err := dev.Read(lpn, at)
		if err != nil {
			return fail(fmt.Errorf("verify read lpn %d: %w", lpn, err))
		}
		if !bytes.Equal(got, w) {
			d.verified = false
			break
		}
	}
	return &restoredDevice{dev: dev, client: client, at: at}, nil
}

// restoreAll restores every device of a cohort concurrently through rr,
// with cfg(i) as device i's power-on config, and closes each restored
// device: for cohorts that measure the restore alone.
func (rr restoreRun) restoreAll(rig *fleetRig, devs []*poweredOff, cfg func(i int) core.Config) error {
	return eachDevice(len(devs), func(i int) error {
		rd, err := rr.run(rig, cfg(i), devs[i])
		if err != nil {
			return err
		}
		rd.dev.Close()
		rd.client.Close()
		return nil
	})
}

// restoreRTO is the mean and max restore RTO, in ms, over devs.
func restoreRTO(devs []*poweredOff) (mean, max float64) {
	var total, top simclock.Duration
	for _, d := range devs {
		total += d.rep.RTO
		if d.rep.RTO > top {
			top = d.rep.RTO
		}
	}
	return float64(total) / float64(len(devs)) / 1e6, float64(top) / 1e6
}
