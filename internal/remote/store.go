package remote

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// Store indexes offloaded segments per device. Segments must arrive in
// time order with an unbroken hash chain — the ingest check is what turns
// "a pile of blobs" into a trusted evidence chain.
//
// The indexes are sharded per device: the Store-level lock only guards
// the device directory (and the subscriber list), while each device's log,
// version, and checkpoint indexes sit behind that device's own lock.
// Ingest from N devices therefore proceeds concurrently — one slow or
// chatty device never serializes the fleet.
type Store struct {
	mu      sync.RWMutex
	blobs   ObjectStore
	devices map[uint64]*deviceLog
	// chunks is the fleet-wide content-addressed page index: every
	// ingested page version is interned by its verified content hash, so
	// one physical copy serves all devices and segments that wrote the
	// same bytes. Lock order: a device shard lock may be held when taking
	// a chunk shard lock, never the reverse.
	chunks *chunkIndex
	subs   []func(deviceID uint64, seg *oplog.Segment)
	// OnSegment, when set, is invoked after each accepted segment, like a
	// subscriber registered first. Prefer Subscribe, which supports
	// multiple consumers; the field remains for single-consumer wiring.
	//
	// Contract change with sharded ingest: the hook now runs with the
	// ingesting device's shard write-locked (that is what guarantees
	// per-device delivery order), so — exactly like a subscriber — it must
	// not call back into the Store for the same device.
	OnSegment func(deviceID uint64, seg *oplog.Segment)
}

type deviceLog struct {
	mu          sync.RWMutex
	entries     []oplog.Entry // contiguous from seq entriesBase
	entriesBase uint64
	nextSeq     uint64
	headHash    [oplog.HashSize]byte
	versions    map[uint64][]oplog.PageRecord // lpn -> records sorted by WriteSeq
	checkpoints []nvmeoe.Checkpoint           // sorted by Seq
	segKeys     []string
	pageBytes   int64
	// dedupHits counts ingested page versions whose content was already
	// in the chunk index — the store-side dedup ledger for this device.
	dedupHits int64
	// bytesLogical is what segments decode to (the uncompressed marshal);
	// bytesStored what the object store actually holds. Their ratio is the
	// wire/at-rest compression the retention budget is sized with.
	bytesLogical int64
	bytesStored  int64
	// subNanos is wall time spent in subscribers (streaming detection) for
	// this device's ingested segments — the server's IngestStats surfaces
	// it as DetectTime.
	subNanos int64
}

// NewStore returns a Store persisting blobs to the given object store.
func NewStore(blobs ObjectStore) *Store {
	return &Store{blobs: blobs, devices: map[uint64]*deviceLog{}, chunks: newChunkIndex()}
}

// Subscribe registers a segment-ingest hook; every accepted segment is
// delivered, per device in ingest order. The streaming detection pipeline
// (internal/detect) registers here, exactly as the paper runs detection on
// the remote server. Subscribers run on the ingesting session's goroutine
// with that device's shard locked, so they must not call back into the
// Store for the same device.
func (s *Store) Subscribe(fn func(deviceID uint64, seg *oplog.Segment)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// dev returns the device's shard, creating it on first contact.
func (s *Store) dev(id uint64) *deviceLog {
	s.mu.RLock()
	d, ok := s.devices[id]
	s.mu.RUnlock()
	if ok {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok = s.devices[id]; !ok {
		d = &deviceLog{versions: map[uint64][]oplog.PageRecord{}}
		s.devices[id] = d
	}
	return d
}

// lookup returns the device's shard without creating it.
func (s *Store) lookup(id uint64) (*deviceLog, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.devices[id]
	return d, ok
}

// Devices returns the IDs of every device with ingested state.
func (s *Store) Devices() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint64, 0, len(s.devices))
	for id := range s.devices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AppendSegment verifies and ingests one offloaded segment, encoding it
// through the wire codec before persisting. Sessions that already hold the
// encoded wire form (Server) use AppendSegmentBlob to store those exact
// bytes instead of re-encoding.
func (s *Store) AppendSegment(seg *oplog.Segment) error {
	return s.AppendSegmentBlob(seg, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
}

// AppendSegmentBlob verifies and ingests one offloaded segment: page
// hashes must match, and the entries must extend the device's chain
// exactly. blob is the codec-framed wire encoding of seg and is persisted
// verbatim — compressed on the wire is compressed at rest. Only the
// segment's own device shard is locked, so ingest from different devices
// runs concurrently.
func (s *Store) AppendSegmentBlob(seg *oplog.Segment, blob []byte) error {
	if err := seg.VerifyPages(); err != nil {
		return fmt.Errorf("remote: reject segment: %w", err)
	}
	d := s.dev(seg.DeviceID)
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(seg.Entries) > 0 {
		if seg.Entries[0].Seq != d.nextSeq {
			return fmt.Errorf("remote: segment starts at seq %d, chain is at %d", seg.Entries[0].Seq, d.nextSeq)
		}
		if err := oplog.VerifyChain(seg.Entries, d.headHash); err != nil {
			return fmt.Errorf("remote: reject segment: %w", err)
		}
	}
	key := fmt.Sprintf("dev/%d/seg/%020d", seg.DeviceID, d.nextSeq)
	if err := s.blobs.Put(key, blob); err != nil {
		return fmt.Errorf("remote: persist segment: %w", err)
	}
	if n := len(seg.Entries); n > 0 {
		d.entries = append(d.entries, seg.Entries...)
		d.nextSeq = seg.Entries[n-1].Seq + 1
		d.headHash = seg.Entries[n-1].Hash
	}
	for i := range seg.Pages {
		p := &seg.Pages[i]
		// Intern by the hash VerifyPages just checked: the version index
		// (and every subscriber) sees the canonical physical copy.
		data, hit := s.chunks.intern(p.Hash, p.Data)
		p.Data = data
		if hit {
			d.dedupHits++
		}
		d.versions[p.LPN] = insertVersion(d.versions[p.LPN], *p)
		d.pageBytes += int64(len(p.Data))
	}
	d.segKeys = append(d.segKeys, key)
	d.bytesLogical += int64(nvmeoe.SegmentBlobLogicalSize(blob))
	d.bytesStored += int64(len(blob))
	// Streaming consumers see segments per device in ingest order because
	// the shard lock is still held; other devices are unaffected.
	s.mu.RLock()
	subs := s.subs
	cb := s.OnSegment
	s.mu.RUnlock()
	if cb != nil || len(subs) > 0 {
		t0 := time.Now()
		if cb != nil {
			cb(seg.DeviceID, seg)
		}
		for _, fn := range subs {
			fn(seg.DeviceID, seg)
		}
		d.subNanos += time.Since(t0).Nanoseconds()
	}
	return nil
}

// SubscriberTime returns the wall time ingest has spent inside subscribers
// (the streaming detection pipeline) for one device.
func (s *Store) SubscriberTime(deviceID uint64) time.Duration {
	d, ok := s.lookup(deviceID)
	if !ok {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return time.Duration(d.subNanos)
}

// insertVersion keeps the per-LPN version list sorted by WriteSeq.
// Segments arrive in time order so appends are the common case.
func insertVersion(vs []oplog.PageRecord, p oplog.PageRecord) []oplog.PageRecord {
	if n := len(vs); n == 0 || vs[n-1].WriteSeq <= p.WriteSeq {
		return append(vs, p)
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq > p.WriteSeq })
	vs = append(vs, oplog.PageRecord{})
	copy(vs[i+1:], vs[i:])
	vs[i] = p
	return vs
}

// AppendCheckpoint stores a mapping snapshot.
func (s *Store) AppendCheckpoint(deviceID uint64, cp nvmeoe.Checkpoint) error {
	key := fmt.Sprintf("dev/%d/cp/%020d", deviceID, cp.Seq)
	if err := s.blobs.Put(key, cp.Marshal()); err != nil {
		return fmt.Errorf("remote: persist checkpoint: %w", err)
	}
	d := s.dev(deviceID)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkpoints = append(d.checkpoints, cp)
	sort.Slice(d.checkpoints, func(i, j int) bool { return d.checkpoints[i].Seq < d.checkpoints[j].Seq })
	return nil
}

// Entries returns stored entries with from <= Seq < to.
func (s *Store) Entries(deviceID, from, to uint64) []oplog.Entry {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return nil
	}
	if to > d.nextSeq {
		to = d.nextSeq
	}
	if from < d.entriesBase {
		from = d.entriesBase
	}
	if from >= to {
		return nil
	}
	out := make([]oplog.Entry, to-from)
	copy(out, d.entries[from-d.entriesBase:to-d.entriesBase])
	return out
}

// Version returns the newest retained version of lpn written strictly
// before sequence before.
func (s *Store) Version(deviceID, lpn, before uint64) (oplog.PageRecord, bool) {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return oplog.PageRecord{}, false
	}
	vs := d.versions[lpn]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before })
	if i == 0 {
		return oplog.PageRecord{}, false
	}
	return vs[i-1], true
}

// Image returns, for every LPN with a retained version written before the
// given sequence, that newest version — a full point-in-time snapshot of
// the offloaded history.
func (s *Store) Image(deviceID, before uint64) []oplog.PageRecord {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return nil
	}
	var out []oplog.PageRecord
	for _, vs := range d.versions {
		i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before })
		if i > 0 {
			out = append(out, vs[i-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LPN < out[j].LPN })
	return out
}

// ImageRange returns the next chunk of a point-in-time image: for up to
// maxPages LPNs with fromLPN <= LPN < toLPN that have a retained version
// written before the given sequence, the newest such version, in LPN
// order. nextLPN is one past the last returned LPN and more reports
// whether further qualifying LPNs exist at or past it.
//
// The streamed restore path calls this once per chunk rather than
// snapshotting the whole image up front: versions that arrive while the
// restore is in flight (a recovering device's own restore-churn offloads)
// are visible to later chunks, so the stream never serves a view staler
// than the chain head it resumed from.
//
// only, when non-nil, restricts the image to that LPN set — the
// checkpoint-anchored delta path passes TouchedSince(anchor) so only
// diverged pages are served. nil means the full image.
func (s *Store) ImageRange(deviceID, fromLPN, toLPN, before uint64, maxPages int, only map[uint64]struct{}) (pages []oplog.PageRecord, nextLPN uint64, more bool) {
	d, ok := s.lookup(deviceID)
	if !ok {
		return nil, fromLPN, false
	}
	if maxPages <= 0 {
		maxPages = 1
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Bounded selection: keep the maxPages+1 smallest qualifying LPNs in
	// a max-heap (the +1 learns whether more remain), so one chunk costs
	// O(versions · log chunk) — never a sort of the whole remaining tail,
	// and never an allocation sized by a wire-supplied value.
	k := maxPages + 1
	lpns := make([]uint64, 0, min(k, 4096))
	for lpn, vs := range d.versions {
		if lpn < fromLPN || lpn >= toLPN {
			continue
		}
		if only != nil {
			if _, touched := only[lpn]; !touched {
				continue
			}
		}
		if i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before }); i == 0 {
			continue
		}
		if len(lpns) < k {
			lpns = append(lpns, lpn)
			lpnHeapUp(lpns)
		} else if lpn < lpns[0] {
			lpns[0] = lpn
			lpnHeapDown(lpns)
		}
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	if len(lpns) > maxPages {
		lpns, more = lpns[:maxPages], true
	}
	for _, lpn := range lpns {
		vs := d.versions[lpn]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before })
		pages = append(pages, vs[i-1])
	}
	nextLPN = fromLPN
	if n := len(pages); n > 0 {
		nextLPN = pages[n-1].LPN + 1
	}
	return pages, nextLPN, more
}

// lpnHeapUp restores the max-heap property after appending to h.
func lpnHeapUp(h []uint64) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// lpnHeapDown restores the max-heap property after replacing h[0].
func lpnHeapDown(h []uint64) {
	for i := 0; ; {
		big := i
		if l := 2*i + 1; l < len(h) && h[l] > h[big] {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Checkpoint returns the newest checkpoint with Seq <= before.
func (s *Store) Checkpoint(deviceID, before uint64) (nvmeoe.Checkpoint, bool) {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok || len(d.checkpoints) == 0 {
		return nvmeoe.Checkpoint{}, false
	}
	i := sort.Search(len(d.checkpoints), func(i int) bool { return d.checkpoints[i].Seq > before })
	if i == 0 {
		return nvmeoe.Checkpoint{}, false
	}
	return d.checkpoints[i-1], true
}

// Head returns the device's chain state: next expected sequence and the
// hash of the last accepted entry.
func (s *Store) Head(deviceID uint64) nvmeoe.Head {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return nvmeoe.Head{}
	}
	return nvmeoe.Head{NextSeq: d.nextSeq, Hash: d.headHash}
}

// Stats summarizes a device's remote footprint.
type Stats struct {
	Segments    int
	Entries     int
	Versions    int
	PageBytes   int64
	Checkpoints int
	// BytesLogical is the uncompressed size of the device's segments;
	// BytesStored what the storage tier actually holds for them. Stored <
	// logical is the wire/at-rest compression stretching the retention
	// budget.
	BytesLogical int64
	BytesStored  int64
	// PagesDeduped counts this device's ingested page versions whose
	// content the chunk index already held (from any device) — the
	// store-side dedup ledger.
	PagesDeduped int64
}

// DeviceStats returns the remote footprint of one device.
func (s *Store) DeviceStats(deviceID uint64) Stats {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return Stats{}
	}
	nv := 0
	for _, vs := range d.versions {
		nv += len(vs)
	}
	return Stats{
		Segments:     len(d.segKeys),
		Entries:      len(d.entries),
		Versions:     nv,
		PageBytes:    d.pageBytes,
		Checkpoints:  len(d.checkpoints),
		BytesLogical: d.bytesLogical,
		BytesStored:  d.bytesStored,
		PagesDeduped: d.dedupHits,
	}
}

// Dedup returns the content-addressed index's fleet-wide ledger: distinct
// physical pages held versus logical page versions referencing them.
func (s *Store) Dedup() DedupStats {
	return s.chunks.stats()
}

// TouchedSince returns the set of LPNs with a state-changing log entry
// (write, trim, recovery write/trim) at or after sequence since — the
// diverged set a checkpoint-anchored delta restore must stream. Every LPN
// outside the set has had no state change since the anchor, so its live
// content at the cut equals its content at the anchor and the device
// reconstructs it locally. since == 0 (no anchor) returns nil: no filter,
// stream the full image.
func (s *Store) TouchedSince(deviceID, since uint64) map[uint64]struct{} {
	if since == 0 {
		return nil
	}
	d, ok := s.lookup(deviceID)
	if !ok {
		return map[uint64]struct{}{}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	touched := map[uint64]struct{}{}
	if since < d.entriesBase {
		since = d.entriesBase
	}
	if since >= d.nextSeq {
		return touched
	}
	for _, e := range d.entries[since-d.entriesBase:] {
		switch e.Kind {
		case oplog.KindWrite, oplog.KindTrim, oplog.KindRecovery, oplog.KindRecoveryTrim:
			touched[e.LPN] = struct{}{}
		}
	}
	return touched
}

// DropSegmentPages removes the page payloads of the device's i-th stored
// segment from the version and chunk indexes — the retention-expiry
// primitive. The evidence chain (entries, blobs, checkpoints) is kept for
// forensics; only the retained page versions and their chunk references
// go. A chunk's physical copy is freed only when the last page version
// referencing it — from any device — is dropped. Each segment may be
// dropped at most once.
func (s *Store) DropSegmentPages(deviceID uint64, i int) error {
	seg, err := s.FetchSegment(deviceID, i)
	if err != nil {
		return err
	}
	d, ok := s.lookup(deviceID)
	if !ok {
		return fmt.Errorf("%w: device %d", ErrNotFound, deviceID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range seg.Pages {
		vs := d.versions[p.LPN]
		for j := range vs {
			if vs[j].WriteSeq != p.WriteSeq {
				continue
			}
			d.versions[p.LPN] = append(vs[:j], vs[j+1:]...)
			if len(d.versions[p.LPN]) == 0 {
				delete(d.versions, p.LPN)
			}
			d.pageBytes -= int64(len(p.Data))
			s.chunks.release(p.Hash)
			break
		}
	}
	return nil
}

// Blobs exposes the storage tier the Store persists to (tier selection,
// cost/latency ledgers, settling eventually-consistent listings).
func (s *Store) Blobs() ObjectStore { return s.blobs }

// TierStats returns the storage tier's cost/latency ledger when the
// backend keeps one (s3sim), or a zero ledger for free local tiers.
func (s *Store) TierStats() TierStats {
	if ts, ok := s.blobs.(TierStatter); ok {
		return ts.TierStats()
	}
	return TierStats{}
}

// PutServiceTime returns the tier's modeled service time for persisting an
// n-byte blob, or zero on tiers without a latency model. The server reads
// it per accepted segment and carries it in the durability ack.
func (s *Store) PutServiceTime(n int) simclock.Duration {
	if m, ok := s.blobs.(ServiceTimeModeler); ok {
		return m.PutServiceTime(n)
	}
	return 0
}

// FetchSegment retrieves and decodes the device's i-th stored segment,
// transparently inflating compressed blobs. Forensic tooling re-reads the
// raw evidence chain this way.
func (s *Store) FetchSegment(deviceID uint64, i int) (*oplog.Segment, error) {
	d, ok := s.lookup(deviceID)
	if !ok {
		return nil, fmt.Errorf("%w: device %d", ErrNotFound, deviceID)
	}
	d.mu.RLock()
	if i < 0 || i >= len(d.segKeys) {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: segment %d of device %d", ErrNotFound, i, deviceID)
	}
	key := d.segKeys[i]
	d.mu.RUnlock()
	blob, err := s.blobs.Get(key)
	if err != nil {
		return nil, err
	}
	// Decode into a pooled buffer sized by the blob's logical-size header:
	// the marshal is transient (UnmarshalSegment copies what it keeps), so
	// the cold path stops double-allocating it.
	buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
	raw, err := nvmeoe.AppendDecodeSegmentBlob(buf.B, blob)
	if err != nil {
		buf.Release()
		return nil, fmt.Errorf("remote: fetch %s: %w", key, err)
	}
	seg, err := oplog.UnmarshalSegment(raw)
	buf.Release()
	if err != nil {
		return nil, fmt.Errorf("remote: fetch %s: %w", key, err)
	}
	return seg, nil
}

// Reload rebuilds the in-memory indexes from the object store. It verifies
// the full chain as it goes, so a tampered blob store is detected. This is
// the durability story: the index is a cache; the blobs are the truth.
//
// Reload is the restart-recovery path: it holds the directory lock for its
// whole duration, so sessions arriving mid-rebuild block at the shard
// lookup instead of ingesting into a directory about to be replaced.
// Callers must still quiesce in-flight requests first (Server.Close) —
// an append already past the lookup races the blob listing.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.blobs.List("dev/")
	if err != nil {
		return err
	}
	// Rebuild into a fresh directory (and fresh chunk index) and swap
	// both in at the end, so a failed reload leaves the previous index
	// intact.
	devices := map[uint64]*deviceLog{}
	chunks := newChunkIndex()
	dev := func(id uint64) *deviceLog {
		d, ok := devices[id]
		if !ok {
			d = &deviceLog{versions: map[uint64][]oplog.PageRecord{}}
			devices[id] = d
		}
		return d
	}
	sort.Strings(keys) // seg keys are zero-padded by seq: lexical == numeric
	for _, key := range keys {
		var devID uint64
		var seq uint64
		if n, _ := fmt.Sscanf(key, "dev/%d/seg/%d", &devID, &seq); n == 2 {
			blob, err := s.blobs.Get(key)
			if err != nil {
				return err
			}
			// Blobs land in whatever frame the wire carried: codec-framed
			// (possibly compressed) since the compressed offload wire, bare
			// marshals before it. Decode handles both, through a pooled
			// buffer reused across the whole rebuild — the marshal is
			// transient (UnmarshalSegment copies what it keeps), so a
			// fleet-sized reload no longer allocates one per segment.
			buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
			raw, err := nvmeoe.AppendDecodeSegmentBlob(buf.B, blob)
			if err != nil {
				buf.Release()
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			logical := len(raw)
			seg, err := oplog.UnmarshalSegment(raw)
			buf.Release()
			if err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			if err := seg.VerifyPages(); err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			d := dev(seg.DeviceID)
			if len(seg.Entries) > 0 {
				if seg.Entries[0].Seq != d.nextSeq {
					return fmt.Errorf("remote: reload %s: chain gap at %d", key, d.nextSeq)
				}
				if err := oplog.VerifyChain(seg.Entries, d.headHash); err != nil {
					return fmt.Errorf("remote: reload %s: %w", key, err)
				}
				d.entries = append(d.entries, seg.Entries...)
				d.nextSeq = seg.Entries[len(seg.Entries)-1].Seq + 1
				d.headHash = seg.Entries[len(seg.Entries)-1].Hash
			}
			for i := range seg.Pages {
				p := &seg.Pages[i]
				data, hit := chunks.intern(p.Hash, p.Data)
				p.Data = data
				if hit {
					d.dedupHits++
				}
				d.versions[p.LPN] = insertVersion(d.versions[p.LPN], *p)
				d.pageBytes += int64(len(p.Data))
			}
			d.segKeys = append(d.segKeys, key)
			d.bytesLogical += int64(logical)
			d.bytesStored += int64(len(blob))
			continue
		}
		if n, _ := fmt.Sscanf(key, "dev/%d/cp/%d", &devID, &seq); n == 2 {
			blob, err := s.blobs.Get(key)
			if err != nil {
				return err
			}
			cp, err := nvmeoe.UnmarshalCheckpoint(blob)
			if err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			d := dev(devID)
			d.checkpoints = append(d.checkpoints, cp)
		}
	}
	for _, d := range devices {
		sort.Slice(d.checkpoints, func(i, j int) bool { return d.checkpoints[i].Seq < d.checkpoints[j].Seq })
	}
	s.devices = devices
	s.chunks = chunks
	return nil
}

// ReloadSettled is Reload for eventually-consistent storage tiers: it
// first settles the backend's listing (s3sim's LIST lags recent PUTs, so a
// plain Reload could silently rebuild short of the chain head) and then
// rebuilds. On strongly-consistent tiers it is exactly Reload.
func (s *Store) ReloadSettled() error {
	if st, ok := s.blobs.(Settler); ok {
		st.Settle()
	}
	return s.Reload()
}
