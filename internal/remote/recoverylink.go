package remote

import (
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// RecoveryLink models the storage server's NIC during fleet recovery.
// Steady-state offload is device-bound — each device owns its NVMe-oE
// link — but recovery inverts the direction: after a fleet-wide incident,
// N devices pull their images from ONE server concurrently, and the
// server's egress NIC is the bottleneck (Project Almanac's observation
// that restore traffic, not ingest, is the bandwidth cliff). The model is
// processor sharing with per-session fair share: a chunk transferred while
// k sessions are recovering sees BW/k of the NIC.
//
// Devices recovering concurrently register with Open and charge each
// chunk's simulated time through ChunkTimeAt. The instantaneous session
// count prices the share, so a device that finishes early returns its
// share to the stragglers — exactly the fairness a per-connection TCP
// share would give.
//
// The link is the restore class of a netsim arbiter. NewRecoveryLink owns
// a private arbiter at the defaults below, where restore is the only
// active class, so it always holds the full line and the fair share is
// the session count. NewRecoveryLinkOn charges restore traffic to a
// shared arbiter, where it contends with offload and lifecycle classes
// under the QoS policy.
type RecoveryLink struct {
	arb *netsim.Arbiter
}

// Recovery link defaults: a server NIC a few times faster than one
// device's offload link (25 GbE-class against the 1200 MB/s device link),
// with a slightly longer round trip for the request/credit exchange.
const (
	DefaultRecoveryRTT  = 50 * simclock.Microsecond
	DefaultRecoveryMBps = 3000
)

// NewRecoveryLink returns a link model over its own private arbiter at
// DefaultRecoveryRTT and DefaultRecoveryMBps.
func NewRecoveryLink() *RecoveryLink {
	return NewRecoveryLinkOn(netsim.New(netsim.Config{RTT: DefaultRecoveryRTT, MBps: DefaultRecoveryMBps}))
}

// NewRecoveryLinkOn returns a link that charges restore traffic to the
// given shared arbiter — the QoS path, where restores contend with
// offload and lifecycle classes on one NIC.
func NewRecoveryLinkOn(arb *netsim.Arbiter) *RecoveryLink {
	return &RecoveryLink{arb: arb}
}

// Arbiter returns the NIC arbiter restore traffic is charged to.
func (l *RecoveryLink) Arbiter() *netsim.Arbiter { return l.arb }

// Open registers one recovering session and returns its release. Sessions
// must bracket their whole restore so the fair share prices concurrency
// honestly. Release is idempotent.
func (l *RecoveryLink) Open() (release func()) {
	return l.arb.Open(netsim.ClassRestore, 1).Close
}

// ChunkTimeAt prices one chunk transfer starting at the caller's simulated
// clock at the current fair share of the restore class's NIC allocation:
// RTT + bytes / (allocation / sessions). The grant contributes to the
// arbiter's conservation span. The restorer charges chunks through this.
func (l *RecoveryLink) ChunkTimeAt(bytes int, now simclock.Time) simclock.Duration {
	return l.arb.GrantClassAt(netsim.ClassRestore, bytes, now)
}

// PeakSessions returns the most sessions ever recovering at once.
func (l *RecoveryLink) PeakSessions() int {
	return l.arb.ClassStats(netsim.ClassRestore).QueuePeak
}
