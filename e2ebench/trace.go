package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/oplog"
	"repro/internal/remote"
)

// timer names a wall-clock ledger the traced run accumulates.
type timer int

const (
	tSubmit timer = iota
	tOffloadNow
	tReopen
	tRestoreImage
	tVerifyRead
	tObserve
	tTierPut
	tWireBlock
	numTimers
)

// maxSpans caps the in-memory span buffer; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// span is one timed call, in the Chrome trace-event sense of a complete
// ("X") event.
type span struct {
	name   string
	id     int64
	parent int64
	dev    uint64
	start  time.Duration // since the tracer started
	dur    time.Duration
}

// tracer records spans around every call the benchmark makes into a layer
// and around the seams it owns (device pipes, the object store, the store's
// Subscribe hook). Every method is a no-op on a nil tracer, which is the
// untraced production wiring.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	parent atomic.Int64 // span id of the current round

	mu      sync.Mutex
	spans   []span
	dropped int
	blobs   [][]byte // segment blobs as persisted, in ingest order

	timers   [numTimers]atomic.Int64 // nanoseconds
	putBytes atomic.Int64
	wireUp   atomic.Int64
	wireDown atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name string, dev uint64, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := span{name: name, id: t.nextID.Add(1), parent: t.parent.Load(), dev: dev,
		start: start.Sub(t.origin), dur: dur}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// beginRound opens the parent span of one traced round and returns its
// closer.
func (t *tracer) beginRound(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	prev := t.parent.Swap(id)
	t0 := time.Now()
	return func() {
		t.parent.Store(prev)
		s := span{name: name, id: id, parent: prev, start: t0.Sub(t.origin), dur: time.Since(t0)}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// resetLedgers zeroes the wall-clock and byte ledgers at the start of a
// measured interval. Spans and captured blobs are kept.
func (t *tracer) resetLedgers() {
	if t == nil {
		return
	}
	for i := range t.timers {
		t.timers[i].Store(0)
	}
	t.putBytes.Store(0)
	t.wireUp.Store(0)
	t.wireDown.Store(0)
}

func (t *tracer) add(k timer, d time.Duration) {
	if t != nil {
		t.timers[k].Add(int64(d))
	}
}

func (t *tracer) seconds(k timer) float64 {
	return time.Duration(t.timers[k].Load()).Seconds()
}

// subscribe is what detect.Attach does, with the Observe call timed.
func (t *tracer) subscribe(store *remote.Store, eng *detect.Engine) {
	store.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
		t0 := time.Now()
		eng.Observe(deviceID, seg.Entries)
		el := time.Since(t0)
		t.span("detect.Observe", deviceID, t0, el)
		t.add(tObserve, el)
	})
}

// tier wraps the store's ObjectStore: it times every Put and keeps each
// persisted segment blob for the calibration pass.
type tier struct {
	remote.ObjectStore
	t *tracer
}

func (t *tracer) wrapTier(inner remote.ObjectStore) remote.ObjectStore {
	return &tier{ObjectStore: inner, t: t}
}

func (w *tier) Put(key string, data []byte) error {
	t0 := time.Now()
	err := w.ObjectStore.Put(key, data)
	el := time.Since(t0)
	w.t.span("remote.tier.Put", 0, t0, el)
	w.t.add(tTierPut, el)
	w.t.putBytes.Add(int64(len(data)))
	if strings.Contains(key, "/seg/") {
		w.t.mu.Lock()
		w.t.blobs = append(w.t.blobs, append([]byte(nil), data...)) // data may be a pooled buffer
		w.t.mu.Unlock()
	}
	return err
}

// wire wraps the device end of a device-server pipe: it counts bytes each
// way and the time the device spends blocked handing bytes to the server.
type wire struct {
	net.Conn
	t *tracer
}

func (t *tracer) wrapConn(c net.Conn) net.Conn { return &wire{Conn: c, t: t} }

func (w *wire) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.Conn.Write(p)
	w.t.add(tWireBlock, time.Since(t0))
	w.t.wireUp.Add(int64(n))
	return n, err
}

func (w *wire) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	w.t.wireDown.Add(int64(n))
	return n, err
}

// takeBlobs returns and forgets the captured segment blobs.
func (t *tracer) takeBlobs() [][]byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.blobs
	t.blobs = nil
	return b
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Device id is the thread id; each span's
// parent is in its args.
func (t *tracer) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			name, s.dev, float64(s.start.Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3, s.id, s.parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
