package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/netsim"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// run accumulates the rounds of one benchmark invocation.
type run struct {
	w    *spec
	seed int64

	setups    []float64 // s
	mbps      []float64 // per round, untraced
	tracedMB  []float64 // per round, traced
	stored    []float64 // per round
	lat       []time.Duration
	attempted uint64
	failed    uint64

	layers []map[string]float64 // per traced round
	sims   []map[string]float64 // per round: the simulated-time fingerprint
}

// rounds runs n rounds and stops at the first failed gate, returning it.
// Each round draws its inputs from the run seed and its index, so a run's
// median averages over many inputs. With a tracer, rounds come in pairs
// that share inputs, the second of each traced: the pair shows the
// tracing overhead and whether simulated time repeats exactly.
func (rn *run) rounds(n int, tr *tracer) error {
	setupStart := processStart
	for i := 0; i < n; i++ {
		inputs := i
		var rt *tracer
		if tr != nil {
			inputs = i / 2
			if i%2 == 1 {
				rt = tr
			}
		}
		r := &round{w: rn.w, seed: rn.seed*1_000_033 + int64(inputs)}
		err := rn.round(r, rt, setupStart)
		rn.attempted += r.attempted
		rn.failed += r.failed
		if err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		setupStart = time.Now()
	}
	return nil
}

// round builds a fleet, sets it up, measures, checks the gates and tears
// the fleet down. setupStart is when the round's setup began (the process
// start for the first round).
func (rn *run) round(r *round, tr *tracer, setupStart time.Time) error {
	end := tr.beginRound("round." + rn.w.name)
	defer end()
	tr.takeBlobs()
	r.f = newFleet(tr)
	if err := rn.w.setup(r); err != nil {
		r.f.teardown()
		return fmt.Errorf("setup: %w", err)
	}
	runtime.GC() // start every interval from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.base = r.snapshot()
	tr.resetLedgers()
	cpu0 := cpuTime()
	rn.setups = append(rn.setups, time.Since(setupStart).Seconds())

	measureErr := rn.w.measure(r)

	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	var gateErr error
	if measureErr != nil {
		gateErr = measureErr
	} else {
		gateErr = rn.w.check(r)
	}
	tot := r.f.srv.IngestTotals()
	r.attempted += tot.Segments + tot.Errors
	r.failed += tot.Errors
	if err := r.f.teardown(); err != nil && gateErr == nil {
		gateErr = err
	}
	poolDelta := r.f.poolDelta()
	if poolDelta != 0 && gateErr == nil {
		gateErr = fmt.Errorf("bufpool outstanding-buffer gauge moved %+d beyond flash residency after teardown", poolDelta)
	}
	if gateErr != nil {
		r.failed++
		return gateErr
	}

	mb := float64(r.logical) / 1e6 / r.interval.Seconds()
	if tr != nil {
		rn.tracedMB = append(rn.tracedMB, mb)
		rn.layers = append(rn.layers, rn.layerRound(r, tr, &m0, &m1, cpu, poolDelta))
	} else {
		rn.mbps = append(rn.mbps, mb)
		rn.stored = append(rn.stored, float64(r.stored)/float64(r.written))
		rn.lat = append(rn.lat, r.lat...)
	}
	rn.sims = append(rn.sims, simFingerprint(r))
	return nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2eMetrics are the untraced end-to-end numbers.
func (rn *run) e2eMetrics() map[string]metric {
	lat := durations(rn.lat, time.Millisecond)
	n := len(lat)
	p := tailPercentile(n)
	p50 := percentile(lat, 50)
	tail := percentile(lat, p)
	fmt.Printf("latency: %d samples, p50 %.4f ms, tail = p%g %.4f ms\n", n, p50, p, tail)
	return map[string]metric{
		"setup_s":         {median(rn.setups), "s"},
		"throughput_mbps": {median(rn.mbps), "MB/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_tail_ms": {tail, "ms"},
		"stored_ratio":    {median(rn.stored), "ratio"},
		"mem_peak_mb":     {peakRSSMB(), "MB"},
	}
}

// simKeys are the simulated-time and count metrics a fixed seed should
// reproduce exactly when the simulator is deterministic.
var simKeys = []string{
	"core.host_lat_sim_p50_us", "core.host_lat_sim_p99_us", "core.ack_sim_us", "core.rto_sim_p50_ms",
	"core.segments", "ftl.waf", "netsim.restore_wait_sim_p99_ms", "netsim.offload_wait_sim_p99_ms",
}

// simFingerprint collects the simKeys values of one round.
func simFingerprint(r *round) map[string]float64 {
	m := map[string]float64{}
	sim := make([]float64, len(r.sim))
	for i, d := range r.sim {
		sim[i] = float64(d) / float64(simclock.Microsecond)
	}
	m["core.host_lat_sim_p50_us"] = percentile(sim, 50)
	m["core.host_lat_sim_p99_us"] = percentile(sim, 99)
	l := r.ledger()
	if l.segments > 0 {
		m["core.ack_sim_us"] = float64(l.ackTime) / float64(l.segments) / float64(simclock.Microsecond)
	}
	m["core.segments"] = float64(l.segments)
	if l.hostWrites > 0 {
		m["ftl.waf"] = float64(l.programs) / float64(l.hostWrites)
	}
	rto := make([]float64, len(r.restores))
	for i, run := range r.restores {
		rto[i] = float64(run.rep.RTO) / float64(simclock.Millisecond)
	}
	m["core.rto_sim_p50_ms"] = percentile(rto, 50)
	nic := r.f.nic.Stats()
	m["netsim.restore_wait_sim_p99_ms"] = nic[netsim.ClassRestore].WaitP99Ms
	m["netsim.offload_wait_sim_p99_ms"] = nic[netsim.ClassOffload].WaitP99Ms
	return m
}

// simRepeats reports, per simKey, whether both rounds of every pair that
// shared inputs produced the same value.
func (rn *run) simRepeats() (repeat []string, vary []string) {
	for _, k := range simKeys {
		same := true
		for i := 1; i < len(rn.sims); i += 2 {
			if rn.sims[i][k] != rn.sims[i-1][k] {
				same = false
			}
		}
		if same {
			repeat = append(repeat, k)
		} else {
			vary = append(vary, k)
		}
	}
	sort.Strings(repeat)
	sort.Strings(vary)
	return repeat, vary
}

// devSnap is one device's counters at the start of the measured interval.
type devSnap struct {
	core     core.Stats
	ftl      ftl.Stats
	programs uint64
}

// snap is the round's counters at the start of the measured interval, so
// per-layer numbers cover the interval only. A device with no RSSD yet (a
// restore's power-cycled device) snapshots its flash alone: the reopened
// RSSD starts its counters at zero.
type snap struct {
	devs   map[uint64]devSnap
	ingest remote.IngestStats
}

func (r *round) snapshot() snap {
	s := snap{devs: map[uint64]devSnap{}, ingest: r.f.srv.IngestTotals()}
	for _, d := range r.f.devs {
		ds := devSnap{programs: d.nd.Stats().Programs}
		if d.rssd != nil {
			ds.core, ds.ftl = d.rssd.Stats(), d.rssd.FTL().Stats()
		}
		s.devs[d.id] = ds
	}
	return s
}

// ledger is the fleet's device-side counters over the measured interval.
type ledger struct {
	segments, stalls                uint64
	ackTime                         simclock.Duration
	hostWrites, programs            uint64
	gcRuns, gcMigrates, pinMigrates uint64
}

func (r *round) ledger() ledger {
	var l ledger
	for _, d := range r.f.devs {
		b := r.base.devs[d.id]
		st, fs := d.rssd.Stats(), d.rssd.FTL().Stats()
		l.segments += st.OffloadSegments - b.core.OffloadSegments
		l.stalls += st.OffloadStalls - b.core.OffloadStalls
		l.ackTime += st.OffloadAckTime - b.core.OffloadAckTime
		l.hostWrites += fs.HostWrites - b.ftl.HostWrites
		l.programs += d.nd.Stats().Programs - b.programs
		l.gcRuns += fs.GCRuns - b.ftl.GCRuns
		l.gcMigrates += fs.GCMigrates - b.ftl.GCMigrates
		l.pinMigrates += fs.PinMigrates - b.ftl.PinMigrates
	}
	return l
}
