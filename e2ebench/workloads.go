package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nvmeoe"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// spec describes one workload: how many devices a round runs, how much
// work a round holds, and the round's setup, measured interval and
// correctness gates.
type spec struct {
	name    string
	devices int
	// roundsPerSecond sets the work in a run: --seconds s runs
	// round(s * roundsPerSecond) rounds (at least minRounds), sized so a
	// run measures about s seconds on a 2-core x86-64 box. The work, not
	// the time, is fixed, so two commits measure the same work.
	roundsPerSecond float64
	setup           func(r *round) error
	measure         func(r *round) error
	check           func(r *round) error
}

const minRounds = 3

// ingestWritePages is the pages each ingest device writes in one round:
// 1.25x its raw flash, so garbage collection runs every round.
const ingestWritePages = rawPages * 5 / 4

var specs = map[string]*spec{
	"ingest":  {name: "ingest", devices: 3, roundsPerSecond: 3.5, setup: setupIngest, measure: measureDrive, check: checkIngest},
	"ransom":  {name: "ransom", devices: 4, roundsPerSecond: 5, setup: setupRansom, measure: measureDrive, check: checkRansom},
	"restore": {name: "restore", devices: 4, roundsPerSecond: 4, setup: setupRestore, measure: measureRestore, check: checkRestore},
}

// round is one fleet built, set up, measured, checked and torn down. Its
// inputs derive from its seed alone.
type round struct {
	w    *spec
	seed int64
	f    *fleet
	base snap // counters at the start of the measured interval

	// Filled by the workload.
	// cut maps a device to its log sequence at the pre-attack checkpoint:
	// where the attack starts and where the restore rolls back to.
	cut       map[uint64]uint64
	wantPages map[uint64]map[uint64][]byte // device -> LPN -> page at the cut
	restores  []restoreRun

	// Measured interval.
	interval time.Duration
	logical  uint64 // logical bytes carried end to end
	written  uint64 // host-written logical bytes in the round, setup included
	stored   uint64 // bytes the storage tier holds once they are durable
	lat      []time.Duration
	sim      []simclock.Duration
	gen      time.Duration

	attempted, failed uint64
}

// restoreRun is one device's power-cycle restore.
type restoreRun struct {
	wall time.Duration // Reopen + RestoreImage
	rep  core.RestoreReport
}

func (r *round) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// --- ingest ---------------------------------------------------------------

func setupIngest(r *round) error {
	arena := newArena(r.rng(1))
	for i := 0; i < r.w.devices; i++ {
		d, err := r.f.addDevice(uint64(i + 1))
		if err != nil {
			return err
		}
		prof, _ := workload.ProfileByName(profiles[i%len(profiles)])
		logical := d.rssd.LogicalPages()
		d.steps = replaySteps(prof, logical, r.seed*7919+int64(i), ingestWritePages)
		d.fill = fillWrites(newContent(arena, prof, d.id, logical, r.seed*104729+int64(i)))
	}
	return nil
}

// resetCounters zeroes every device's per-phase counters.
func (r *round) resetCounters() {
	for _, d := range r.f.devs {
		d.written, d.pageOps, d.failedOps = 0, 0, 0
	}
}

// driveSetup drives the queued steps outside the measured interval.
func (r *round) driveSetup() error {
	r.resetCounters()
	_, _, _, err := r.f.drive()
	for _, d := range r.f.devs {
		r.written += d.written
	}
	return err
}

func measureDrive(r *round) error {
	r.resetCounters()
	t0 := time.Now()
	lat, sim, gen, err := r.f.drive()
	r.interval = time.Since(t0)
	r.lat, r.sim, r.gen = lat, sim, gen
	for _, d := range r.f.devs {
		r.logical += d.written
		r.attempted += d.pageOps
		r.failed += d.failedOps
	}
	r.written += r.logical
	r.stored = uint64(r.f.mem.Size())
	return err
}

func checkIngest(r *round) error {
	if err := r.checkDurable(); err != nil {
		return err
	}
	if alerts := r.f.eng.Alerts(); len(alerts) > 0 {
		return fmt.Errorf("benign ingest raised %d alerts, first: %v", len(alerts), alerts[0])
	}
	return nil
}

// checkDurable gates on the server-side chains and the acked frontiers,
// and on the server having rejected no segment.
func (r *round) checkDurable() error {
	missing, err := r.f.durable()
	r.failed += missing
	if err != nil {
		return err
	}
	if errs := r.f.srv.IngestTotals().Errors; errs > 0 {
		return fmt.Errorf("server rejected %d segments", errs)
	}
	return nil
}

// --- ransom ---------------------------------------------------------------

// setupRansom builds the fleet with every device holding its plaintext
// corpus, durable on the server and checkpointed, and queues the
// encryptor's I/O as each device's steps.
func setupRansom(r *round) error {
	devices := r.w.devices
	arena := newArena(r.rng(1))
	rng := r.rng(2)
	var key [32]byte
	rng.Read(key[:])
	r.cut = map[uint64]uint64{}
	r.wantPages = map[uint64]map[uint64][]byte{}
	var base *baseImage
	attacks := make([][]step, devices)
	for i := 0; i < devices; i++ {
		d, err := r.f.addDevice(uint64(i + 1))
		if err != nil {
			return err
		}
		logical := d.rssd.LogicalPages()
		if base == nil {
			base = newBaseImage(rng, int(logical/4))
		}
		prof, _ := workload.ProfileByName(profiles[i%len(profiles)])
		c := newContent(arena, prof, d.id, logical, rng.Int63())
		cp := newCorpus(rng, base, c, logical, key)
		d.steps = append(append(cp.writeSteps(), cp.fillSteps(c, logical)...), step{})
		attacks[i] = cp.attackSteps()
		r.wantPages[d.id] = cp.want()
	}
	if err := r.driveSetup(); err != nil {
		return fmt.Errorf("write corpus: %w", err)
	}
	for i, d := range r.f.devs {
		done, err := d.rssd.CheckpointNow(d.at)
		if err != nil {
			return fmt.Errorf("device %d checkpoint: %w", d.id, err)
		}
		d.at = simclock.Max(d.at, done)
		r.cut[d.id] = d.rssd.Log().NextSeq()
		d.steps = attacks[i]
	}
	return nil
}

func checkRansom(r *round) error {
	if err := r.checkDurable(); err != nil {
		return err
	}
	return r.checkCaught()
}

// checkCaught gates on detection: every attacked device raised an alert at
// or after its attack started, and none before.
func (r *round) checkCaught() error {
	for _, d := range r.f.devs {
		caught := false
		for _, a := range r.f.eng.AlertsFor(d.id) {
			if a.AtSeq < r.cut[d.id] {
				return fmt.Errorf("device %d: false alert before the attack: %v", d.id, a)
			}
			caught = true
		}
		if !caught {
			return fmt.Errorf("device %d: attack not caught", d.id)
		}
	}
	return nil
}

// --- restore --------------------------------------------------------------

// setupRestore produces the ransom end state, then power-cycles every
// device: the RSSD and its session go away, the flash stays.
func setupRestore(r *round) error {
	if err := setupRansom(r); err != nil {
		return err
	}
	if err := r.driveSetup(); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	if err := r.checkDurable(); err != nil {
		return err
	}
	if err := r.checkCaught(); err != nil {
		return err
	}
	r.stored = uint64(r.f.mem.Size())
	for _, d := range r.f.devs {
		d.rssd.Close()
		d.client.Close()
		d.rssd, d.client = nil, nil
	}
	return nil
}

// measureRestore reopens every device over its surviving flash and
// restores the pre-attack image with Dedup and Delta, at most GOMAXPROCS
// devices at a time.
func measureRestore(r *round) error {
	f := r.f
	link := remote.NewRecoveryLinkOn(f.nic)
	runs := make([]restoreRun, len(f.devs))
	t0 := time.Now()
	err := f.parallel(func(i int, d *device) error {
		run := &runs[i]
		dial := func() (*remote.Client, error) { return f.dial(d.id) }
		start := time.Now()
		client, err := dial()
		if err != nil {
			return err
		}
		cfg := d.cfg
		cfg.Dial = dial
		rssd, err := core.Reopen(cfg, d.nd, client)
		reopen := time.Since(start)
		f.tr.span("core.Reopen", d.id, start, reopen)
		f.tr.add(tReopen, reopen)
		if err != nil {
			client.Close()
			return fmt.Errorf("device %d reopen: %w", d.id, err)
		}
		d.rssd, d.client = rssd, client
		ri := time.Now()
		done, rep, err := rssd.RestoreImage(r.cut[d.id], core.RestoreOptions{
			Dial:       dial,
			Link:       link,
			ChunkPages: int(nvmeoe.ChunkPagesForQuantum(pageSize)),
			Dedup:      true,
			Delta:      true,
		}, d.at)
		el := time.Since(ri)
		f.tr.span("core.RestoreImage", d.id, ri, el)
		f.tr.add(tRestoreImage, el)
		run.wall = time.Since(start)
		if err != nil {
			return fmt.Errorf("device %d restore: %w", d.id, err)
		}
		d.at = simclock.Max(d.at, done)
		run.rep = rep
		return nil
	})
	r.interval = time.Since(t0)
	r.restores = runs
	r.attempted += uint64(len(runs))
	for _, run := range runs {
		r.logical += uint64(run.rep.PagesRestored+run.rep.PagesZeroed) * pageSize
		r.lat = append(r.lat, run.wall)
	}
	if err != nil {
		r.failed++
	}
	return err
}

// checkRestore reads back every pre-attack page and gates on the image
// being page-identical.
func checkRestore(r *round) error {
	f := r.f
	var bad error
	for _, d := range f.devs {
		t0 := time.Now()
		verified := true
		for lpn, want := range r.wantPages[d.id] {
			got, _, err := d.rssd.Read(lpn, d.at)
			if err != nil || !bytes.Equal(got, want) {
				verified = false
				break
			}
		}
		el := time.Since(t0)
		f.tr.span("core.Read.verify", d.id, t0, el)
		f.tr.add(tVerifyRead, el)
		if !verified {
			r.failed++
			if bad == nil {
				bad = fmt.Errorf("device %d: restored image is not page-identical to the pre-attack snapshot", d.id)
			}
		}
	}
	if bad != nil {
		return bad
	}
	// The restore's own recovery writes ship like any others; the chain
	// must still verify after them.
	for _, d := range f.devs {
		if _, err := d.rssd.OffloadNow(d.at); err != nil {
			return fmt.Errorf("device %d post-restore offload: %w", d.id, err)
		}
	}
	return r.checkDurable()
}
