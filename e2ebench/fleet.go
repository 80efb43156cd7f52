package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Geometry shared by every workload: 4 channels x 2 chips, one plane each,
// 16 blocks of 32 pages per plane, 4 KiB pages. That is 16 MiB of raw
// flash and 14 MiB of logical space per device (12.5% over-provisioning).
const (
	pageSize       = 4096
	planes         = 4 * 2
	blocksPerPlane = 16
	pagesPerBlock  = 32
	rawPages       = planes * blocksPerPlane * pagesPerBlock
)

var psk = []byte("e2ebench-psk-0123456789abcdef012")

// teardownTimeout bounds the wait for server sessions to end after every
// client closed. Exceeding it fails the run.
const teardownTimeout = 10 * time.Second

func deviceConfig(id uint64, nic *netsim.Arbiter) core.Config {
	cfg := core.DefaultConfig()
	cfg.FTL = ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: blocksPerPlane, PagesPerBlock: pagesPerBlock, PageSize: pageSize,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.125,
		GCLowWater:    3,
		GCHighWater:   6,
	}
	cfg.DeviceID = id
	tune := remote.Profile("mem")
	cfg.OffloadHighWater = tune.OffloadHighWater
	cfg.OffloadLowWater = tune.OffloadLowWater
	cfg.OffloadQueueDepth = tune.OffloadQueueDepth
	cfg.NIC = nic
	return cfg
}

func detectConfig() detect.Config {
	cfg := detect.DefaultConfig()
	cfg.PageSize = pageSize
	return cfg
}

// fleet is one server with detection attached and the devices that
// offload to it, built fresh for every round. With a tracer it runs the
// traced wiring: wrapped pipes, a wrapped object store and a timed
// Subscribe hook in place of detect.Attach.
type fleet struct {
	tr    *tracer
	nic   *netsim.Arbiter
	mem   *remote.MemStore
	store *remote.Store
	srv   *remote.Server
	eng   *detect.Engine
	devs  []*device

	poolBase bufpool.Gauge // outstanding-buffer gauge before any device existed
}

// device is one RSSD and the inputs its driver submits.
type device struct {
	id     uint64
	cfg    core.Config
	rssd   *core.RSSD
	client *remote.Client
	at     simclock.Time // device simulated clock: done time of its last call
	nd     *nand.Device  // flash that survives a power cycle

	steps []step // measured-phase work, submitted in order
	fill  func(d *device, ops []batch.Op)
	buf   []byte // payload scratch reused across batches

	// Counters of the phase being driven; reset before the measured one.
	written   uint64 // host-written logical bytes
	pageOps   uint64
	failedOps uint64
}

// step is one closed-loop call: a SubmitBatch of ops, or OffloadNow when
// ops is nil. Only batches that carry a write are latency samples: they
// are the host side of the write -> durable path.
type step struct {
	ops    []batch.Op
	writes bool
}

func newFleet(tr *tracer) *fleet {
	f := &fleet{tr: tr, nic: netsim.New(netsim.Config{}), mem: remote.NewMemStore()}
	f.poolBase = bufpool.Outstanding()
	var tier remote.ObjectStore = f.mem
	if tr != nil {
		tier = tr.wrapTier(f.mem)
	}
	f.store = remote.NewStore(tier)
	f.srv = remote.NewServer(f.store, psk)
	f.srv.NIC = f.nic
	f.eng = detect.NewEngine(detectConfig())
	if tr != nil {
		tr.subscribe(f.store, f.eng)
	} else {
		f.eng.Attach(f.store)
	}
	return f
}

// dial opens a device session over an in-process pipe.
func (f *fleet) dial(id uint64) (*remote.Client, error) {
	if f.tr == nil {
		return remote.Loopback(f.srv, psk, id)
	}
	dc, sc := net.Pipe()
	go f.srv.HandleConn(sc)
	return remote.Dial(f.tr.wrapConn(dc), psk, id)
}

// addDevice builds a fresh RSSD with its own session.
func (f *fleet) addDevice(id uint64) (*device, error) {
	client, err := f.dial(id)
	if err != nil {
		return nil, fmt.Errorf("dial device %d: %w", id, err)
	}
	d := &device{id: id, cfg: deviceConfig(id, f.nic), client: client}
	d.rssd = core.New(d.cfg, client)
	d.nd = d.rssd.FTL().Device()
	f.devs = append(f.devs, d)
	return d, nil
}

// submit runs one step on d and returns its wall latency and, for a
// SubmitBatch, its simulated latency (done - issue).
func (f *fleet) submit(d *device, s step) (time.Duration, simclock.Duration, error) {
	if s.ops == nil {
		t0 := time.Now()
		done, err := d.rssd.OffloadNow(d.at)
		el := time.Since(t0)
		f.tr.span("core.OffloadNow", d.id, t0, el)
		f.tr.add(tOffloadNow, el)
		if err != nil {
			return el, 0, fmt.Errorf("device %d offload: %w", d.id, err)
		}
		d.at = simclock.Max(d.at, done)
		return el, 0, nil
	}
	issue := d.at
	t0 := time.Now()
	res, done, err := d.rssd.SubmitBatch(s.ops, issue)
	el := time.Since(t0)
	f.tr.span("core.SubmitBatch", d.id, t0, el)
	f.tr.add(tSubmit, el)
	d.pageOps += uint64(len(s.ops))
	if err != nil {
		d.failedOps += uint64(len(s.ops))
		return el, 0, fmt.Errorf("device %d submit: %w", d.id, err)
	}
	for i := range res {
		if res[i].Err != nil {
			d.failedOps++
		} else if s.ops[i].Kind == batch.OpWrite {
			d.written += pageSize
		}
	}
	done = simclock.Max(issue, done)
	d.at = done
	return el, done.Sub(issue), nil
}

// drive runs every device's steps closed loop: a device submits its next
// step when the previous call returns, at a simulated issue time equal to
// the previous call's done time. At most GOMAXPROCS driver goroutines run;
// devices beyond that are multiplexed round-robin. It returns the wall
// and simulated latency of every SubmitBatch that carries a write, and
// the driver time spent outside calls (input production and bookkeeping).
func (f *fleet) drive() (lat []time.Duration, sim []simclock.Duration, genTime time.Duration, err error) {
	drivers := runtime.GOMAXPROCS(0)
	if drivers > len(f.devs) {
		drivers = len(f.devs)
	}
	lats := make([][]time.Duration, drivers)
	sims := make([][]simclock.Duration, drivers)
	gens := make([]time.Duration, drivers)
	errs := make([]error, drivers)
	var wg sync.WaitGroup
	for k := 0; k < drivers; k++ {
		var own []*device
		for i := k; i < len(f.devs); i += drivers {
			own = append(own, f.devs[i])
		}
		wg.Add(1)
		go func(k int, own []*device) {
			defer wg.Done()
			next := make([]int, len(own))
			mark := time.Now()
			for live := len(own); live > 0; {
				live = 0
				for j, d := range own {
					if next[j] >= len(d.steps) {
						continue
					}
					live++
					s := d.steps[next[j]]
					next[j]++
					if s.ops != nil && d.fill != nil {
						d.fill(d, s.ops)
					}
					gens[k] += time.Since(mark)
					el, simLat, err := f.submit(d, s)
					mark = time.Now()
					if err != nil {
						errs[k] = err
						return
					}
					if s.writes {
						lats[k] = append(lats[k], el)
						sims[k] = append(sims[k], simLat)
					}
				}
			}
		}(k, own)
	}
	wg.Wait()
	for k := range lats {
		lat = append(lat, lats[k]...)
		sim = append(sim, sims[k]...)
		genTime += gens[k]
		if errs[k] != nil && err == nil {
			err = errs[k]
		}
	}
	return lat, sim, genTime, err
}

// parallel runs fn for every device (and its index) on at most GOMAXPROCS
// goroutines and returns the first error.
func (f *fleet) parallel(fn func(i int, d *device) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(f.devs) {
		workers = len(f.devs)
	}
	errs := make([]error, len(f.devs))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(f.devs); i += workers {
				errs[i] = fn(i, f.devs[i])
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// durable checks every device's server-side chain and that the store's
// head covers the device's acked frontier. It returns the number of acked
// entries missing from the store.
func (f *fleet) durable() (missing uint64, err error) {
	for _, d := range f.devs {
		head := f.store.Head(d.id)
		var log *oplog.Log
		if d.rssd != nil {
			log = d.rssd.Log()
		}
		n, err := verifyDevice(f.store.Entries(d.id, 0, head.NextSeq), head, log)
		missing += n
		if err != nil {
			return missing, fmt.Errorf("device %d: %w", d.id, err)
		}
	}
	return missing, nil
}

// verifyDevice checks a device's server-side chain (the store's entries
// up to its head) and, when the device is live, that the head covers the
// device's log: after OffloadNow every entry is acked, so any entry past
// the head is an acked entry missing from the store.
func verifyDevice(entries []oplog.Entry, head nvmeoe.Head, log *oplog.Log) (missing uint64, err error) {
	if uint64(len(entries)) != head.NextSeq {
		return 0, fmt.Errorf("store holds %d entries below head %d", len(entries), head.NextSeq)
	}
	if err := oplog.VerifyChain(entries, [oplog.HashSize]byte{}); err != nil {
		return 0, fmt.Errorf("server chain: %w", err)
	}
	if log == nil {
		return 0, nil
	}
	if next := log.NextSeq(); head.NextSeq < next {
		return next - head.NextSeq, fmt.Errorf("%d acked entries missing from the store", next-head.NextSeq)
	}
	if head.Hash != log.Head() {
		return 0, errors.New("store head hash differs from the device log head")
	}
	return 0, nil
}

// teardown closes devices and clients first, then waits for the server to
// see every session end. It does not rely on Server.Close draining.
func (f *fleet) teardown() error {
	for _, d := range f.devs {
		if d.rssd != nil {
			d.rssd.Close()
		}
		if d.client != nil {
			d.client.Close()
		}
	}
	deadline := time.Now().Add(teardownTimeout)
	for f.srv.ActiveSessions() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d server sessions still active %v after every client closed", f.srv.ActiveSessions(), teardownTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// poolDelta is the bufpool outstanding-buffer gauge's movement since the
// fleet was built, net of the page buffers its flash arrays hold.
func (f *fleet) poolDelta() int64 {
	var held int64
	for _, d := range f.devs {
		held += d.nd.HeldPageBufs()
	}
	return bufpool.Outstanding().Sub(f.poolBase).Total() - held
}
