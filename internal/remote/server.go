package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// Error codes carried in MsgError payloads.
const (
	CodeNotFound = 404
	CodeBadData  = 400
	CodeInternal = 500
)

// Server accepts NVMe-oE sessions from devices and serves the Store. Every
// connection gets its own goroutine; segment pushes are handed to the
// shared decode lane (see ingest.go) so connection goroutines stay on the
// wire, and because the Store's indexes are sharded per device, sessions
// make progress independently — the server is the fan-in point of the
// fleet, not a serialization point.
type Server struct {
	Store *Store
	// LookupPSK maps an enrolled device ID to its pre-shared key.
	LookupPSK func(deviceID uint64) ([]byte, bool)
	// Config tunes the ingest path (decode lane sizing). Set it before the
	// first connection is served.
	Config ServerConfig
	// NIC is this server's egress-NIC QoS arbiter: the single shared link
	// that restore streams, device offload traffic, and lifecycle
	// transfers all contend on (internal/netsim). Set it before sessions
	// attach, or let NICArbiter build the default one lazily. Experiments
	// wire it into device configs (core.Config.NIC) and restore links
	// (NewRecoveryLinkOn) so every traffic class is priced on one line.
	NIC *netsim.Arbiter

	mu            sync.Mutex
	conns         map[net.Conn]connEntry // every connection from accept to teardown
	closed        *sync.Cond             // broadcast when a session deregisters; lazily built under mu
	sessionsTotal uint64
	recStats      map[uint64]*RecoveryStats
	ingest        map[uint64]*ingestLedger
	lane          *decodeLane // running decode lane, nil when no session holds it

	// Server-wide decode backlog (jobs enqueued to the lane, not yet fully
	// ingested) and its peaks. queuePeak is the lifetime high-water mark;
	// windowPeak resets on TakeQueuePeak, which is what the cluster's
	// rebalancer samples per tick to spot a persistently hot server.
	queueDepth atomic.Int64
	queuePeak  atomic.Int64
	windowPeak atomic.Int64

	// Ingest-skew window: segments and wire bytes accepted since the last
	// TakeIngestWindow. Where the queue-peak window measures how far behind
	// a server's decode lane got, this measures how much load actually
	// landed — the live skew signal a soak-driven rebalancer compares
	// across servers (Cluster.RebalanceOnIngest).
	winSegments atomic.Uint64
	winBytes    atomic.Uint64
}

// RecoveryStats ledgers what the server served one device during restore:
// how many image streams it opened (and how many of those were resumes of
// an interrupted stream), and the chunk/page/byte volume that crossed the
// recovery path. Wire < logical is the codec compression; the restore wire
// traffic rides the same segment codec as offload.
type RecoveryStats struct {
	Streams      uint64
	Resumes      uint64 // streams opened mid-image (From > 0)
	RangeFetches uint64
	Chunks       uint64
	Pages        uint64
	BytesWire    uint64
	BytesLogical uint64
	// Dedup ledger. On hash-reference streams (FetchFlagDedup) every
	// served page is either a literal (first occurrence of its content
	// hash in the stream — full payload) or a reference (32-byte hash the
	// device resolves locally). BytesDedupSaved is the literal payload
	// volume references avoided; DeltaStreams counts streams served as
	// checkpoint-anchored deltas (Anchor > 0).
	PagesLiteral    uint64
	PagesRef        uint64
	BytesDedupSaved uint64
	DeltaStreams    uint64
}

// DefaultRecoveryChunkPages bounds pages per streamed restore chunk when
// the device does not ask for a specific chunking; MaxRecoveryChunkPages
// clamps what a device may ask for (a chunk must stay a right-sized
// frame, and the request field is wire data — never an allocation size).
const (
	DefaultRecoveryChunkPages = 128
	MaxRecoveryChunkPages     = 4096
)

// RecoveryStats returns the restore-side ledger for one device.
func (s *Server) RecoveryStats(deviceID uint64) RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rs := s.recStats[deviceID]; rs != nil {
		return *rs
	}
	return RecoveryStats{}
}

// addRecovery folds one request's restore traffic into the device ledger.
func (s *Server) addRecovery(deviceID uint64, d RecoveryStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recStats == nil {
		s.recStats = map[uint64]*RecoveryStats{}
	}
	rs := s.recStats[deviceID]
	if rs == nil {
		rs = &RecoveryStats{}
		s.recStats[deviceID] = rs
	}
	rs.Streams += d.Streams
	rs.Resumes += d.Resumes
	rs.RangeFetches += d.RangeFetches
	rs.Chunks += d.Chunks
	rs.Pages += d.Pages
	rs.BytesWire += d.BytesWire
	rs.BytesLogical += d.BytesLogical
	rs.PagesLiteral += d.PagesLiteral
	rs.PagesRef += d.PagesRef
	rs.BytesDedupSaved += d.BytesDedupSaved
	rs.DeltaStreams += d.DeltaStreams
}

// NICArbiter returns the server's egress-NIC arbiter, lazily building a
// default-configured one when none was assigned.
func (s *Server) NICArbiter() *netsim.Arbiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.NIC == nil {
		s.NIC = netsim.New(netsim.Config{})
	}
	return s.NIC
}

// NewServer returns a server over store that accepts any device presenting
// psk (single-tenant setup; use LookupPSK directly for fleets).
func NewServer(store *Store, psk []byte) *Server {
	return &Server{
		Store:     store,
		LookupPSK: func(uint64) ([]byte, bool) { return psk, true },
		conns:     map[net.Conn]connEntry{},
	}
}

// connEntry is a tracked connection: registered at accept, before its
// handshake, so a Close that runs while the handshake is in flight still
// closes it; deviceID is known once the handshake authenticates it.
type connEntry struct {
	deviceID uint64
	authed   bool
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		s.Accept(nc)
	}
}

// ActiveSessions returns the number of authenticated device sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.conns {
		if e.authed {
			n++
		}
	}
	return n
}

// SessionsTotal returns how many sessions ever authenticated.
func (s *Server) SessionsTotal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsTotal
}

// Close is a drain. It closes every connection the server has accepted —
// authenticated sessions and connections still in their handshake alike —
// and waits for their teardown to finish, including the decode-lane idle
// barrier each session runs on its way out. So when Close returns, no
// connection accepted before the call is tracked, and every segment that
// was in flight is either fully applied (decoded, chain-verified,
// appended, subscribers run) or never entered the store; nothing is
// half-applied, and the store no longer advances on those connections.
// Devices see a transport error and requeue their unacked segments. Close
// is not a shutdown latch: connections accepted after it are served
// normally.
func (s *Server) Close() {
	s.closeConns(func(connEntry) bool { return true })
}

// CloseDevice terminates (and drains, like Close) only the authenticated
// sessions of one device — how the cluster evicts a device from a live
// server during rebalancing so it redials to its new owner.
func (s *Server) CloseDevice(deviceID uint64) {
	s.closeConns(func(e connEntry) bool { return e.authed && e.deviceID == deviceID })
}

// closeConns closes every tracked session matching the predicate and
// blocks until those sessions deregister. Closing the conn errors any
// lane worker blocked writing an ack into it, so the per-session
// waitIdle barrier (which runs before deregistration) cannot wedge.
func (s *Server) closeConns(match func(connEntry) bool) {
	s.mu.Lock()
	if s.closed == nil {
		s.closed = sync.NewCond(&s.mu)
	}
	targets := make([]net.Conn, 0, len(s.conns))
	for nc, e := range s.conns {
		if match(e) {
			targets = append(targets, nc)
		}
	}
	s.mu.Unlock()
	for _, nc := range targets {
		nc.Close()
	}
	s.mu.Lock()
	for {
		live := false
		for _, nc := range targets {
			if _, ok := s.conns[nc]; ok {
				live = true
				break
			}
		}
		if !live {
			break
		}
		s.closed.Wait()
	}
	s.mu.Unlock()
}

// track registers an accepted connection, returning its deregister.
func (s *Server) track(nc net.Conn) func() {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = map[net.Conn]connEntry{} // Server built as a literal
	}
	s.conns[nc] = connEntry{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, nc)
		if s.closed != nil {
			s.closed.Broadcast() // a draining Close may be waiting on us
		}
		s.mu.Unlock()
	}
}

// noteQueue adjusts the server-wide decode backlog and, on growth, the
// peak ledgers.
func (s *Server) noteQueue(delta int64) {
	d := s.queueDepth.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		p := s.queuePeak.Load()
		if d <= p || s.queuePeak.CompareAndSwap(p, d) {
			break
		}
	}
	for {
		p := s.windowPeak.Load()
		if d <= p || s.windowPeak.CompareAndSwap(p, d) {
			break
		}
	}
}

// QueuePeak returns the lifetime peak of the server-wide decode backlog.
func (s *Server) QueuePeak() int { return int(s.queuePeak.Load()) }

// TakeQueuePeak returns the decode-backlog peak since the previous call
// and resets the window to the current depth — the skew signal the
// cluster's rebalancer compares across servers each tick.
func (s *Server) TakeQueuePeak() int {
	p := s.windowPeak.Swap(s.queueDepth.Load())
	return int(p)
}

// TakeIngestWindow returns the segments and wire bytes this server accepted
// since the previous call and resets the window — the live ingest-skew
// signal RebalanceOnIngest samples per server.
func (s *Server) TakeIngestWindow() (segments, bytes uint64) {
	return s.winSegments.Swap(0), s.winBytes.Swap(0)
}

// Accept registers nc and serves it on a new goroutine. The registration
// happens before Accept returns, so a Close that starts afterwards closes
// nc whatever stage its handshake has reached — the way to hand the server
// a connection from another goroutine (Serve, Loopback, cluster dials).
func (s *Server) Accept(nc net.Conn) {
	go s.serve(nc, s.track(nc))
}

// HandleConn authenticates one device connection and serves its requests
// until it disconnects, on the calling goroutine; nc is registered on
// entry. Exported so tests and in-process wiring can drive a single
// net.Pipe end without a listener.
func (s *Server) HandleConn(nc net.Conn) {
	s.serve(nc, s.track(nc))
}

// serve runs one registered connection; untrack deregisters it.
func (s *Server) serve(nc net.Conn, untrack func()) {
	defer nc.Close()
	defer untrack()
	conn, deviceID, err := nvmeoe.ServerHandshake(nc, s.LookupPSK)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.conns[nc] = connEntry{deviceID: deviceID, authed: true}
	s.sessionsTotal++
	s.mu.Unlock()
	ss := newSession(s, nc, conn, deviceID)
	ss.lane = s.acquireLane()
	defer s.releaseLane(ss.lane)
	defer ss.waitIdle() // flush in-flight decode jobs before closing nc
	for {
		typ, body, err := conn.ReadMsg()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
				// Transport-integrity failures terminate the session;
				// the device will reconnect and resume from the acked
				// sequence.
				_ = err
			}
			return
		}
		if err := s.dispatch(ss, typ, body); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(ss *session, typ nvmeoe.MsgType, body []byte) error {
	switch typ {
	case nvmeoe.MsgSegment:
		// The payload is the codec-framed segment blob. Hand it to the
		// decode lane and return to the wire: the worker decodes,
		// verifies, appends, and acks. body is private to this ReadMsg, so
		// the handoff is safe.
		ss.begin()
		ss.lane.enqueue(ss, body)
		return nil

	case nvmeoe.MsgCheckpoint:
		// Non-segment messages barrier on the lane so everything the wire
		// ordered before them is ingested first.
		ss.waitIdle()
		cp, err := nvmeoe.UnmarshalCheckpoint(body)
		if err != nil {
			return ss.sendErr(CodeBadData, err)
		}
		if err := s.Store.AppendCheckpoint(ss.deviceID, cp); err != nil {
			return ss.sendErr(CodeInternal, err)
		}
		return ss.writeMsg(nvmeoe.MsgCheckpointAck, (&nvmeoe.Ack{UpTo: cp.Seq}).Marshal())

	case nvmeoe.MsgFetch:
		ss.waitIdle()
		req, err := nvmeoe.UnmarshalFetchReq(body)
		if err != nil {
			return ss.sendErr(CodeBadData, err)
		}
		return s.serveFetch(ss, req)

	default:
		return ss.sendErr(CodeBadData, fmt.Errorf("unexpected message type %v", typ))
	}
}

// serveFetch answers one retrieval request. Every reply that carries a
// segment marshal (entries, versions, images, checkpoints, restore
// chunks) is wrapped in the segment codec — the ROADMAP gap where fetch
// responses shipped uncompressed while only the frame-level deflate
// helped them is closed here, and clients decode transparently. Head
// replies stay bare: 40 bytes gains nothing from a 9-byte codec header.
func (s *Server) serveFetch(ss *session, req nvmeoe.FetchReq) error {
	deviceID := ss.deviceID
	switch req.Kind {
	case nvmeoe.FetchEntries:
		seg := &oplog.Segment{DeviceID: deviceID, Entries: s.Store.Entries(deviceID, req.From, req.To)}
		return ss.writeMsg(nvmeoe.MsgFetchResp, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
	case nvmeoe.FetchVersion:
		seg := &oplog.Segment{DeviceID: deviceID}
		if rec, ok := s.Store.Version(deviceID, req.LPN, req.Before); ok {
			seg.Pages = []oplog.PageRecord{rec}
		}
		return ss.writeMsg(nvmeoe.MsgFetchResp, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
	case nvmeoe.FetchImageStream:
		return s.serveImageStream(ss, req)
	case nvmeoe.FetchRange:
		var pages []oplog.PageRecord
		for from := req.From; ; {
			chunk, next, more := s.Store.ImageRange(deviceID, from, req.To, req.Before, MaxRecoveryChunkPages, nil)
			pages = append(pages, chunk...)
			if !more || len(chunk) == 0 {
				break
			}
			from = next
		}
		seg := &oplog.Segment{DeviceID: deviceID, Pages: pages}
		blob := nvmeoe.EncodeSegmentBlob(seg.Marshal())
		s.addRecovery(deviceID, RecoveryStats{
			RangeFetches: 1,
			Pages:        uint64(len(pages)),
			BytesWire:    uint64(len(blob)),
			BytesLogical: uint64(nvmeoe.SegmentBlobLogicalSize(blob)),
		})
		return ss.writeMsg(nvmeoe.MsgFetchResp, blob)
	case nvmeoe.FetchCheckpoint:
		cp, ok := s.Store.Checkpoint(deviceID, req.Before)
		if !ok {
			return ss.sendErr(CodeNotFound, errors.New("no checkpoint"))
		}
		return ss.writeMsg(nvmeoe.MsgFetchResp, nvmeoe.EncodeSegmentBlob(cp.Marshal()))
	case nvmeoe.FetchHead:
		h := s.Store.Head(deviceID)
		return ss.writeMsg(nvmeoe.MsgFetchResp, h.Marshal())
	default:
		return ss.sendErr(CodeBadData, fmt.Errorf("unknown fetch kind %d", req.Kind))
	}
}

// serveImageStream streams the device's point-in-time image in LPN order:
// codec-framed chunks of at most ChunkPages pages each, terminated by a
// StreamEnd trailer. Each chunk is computed fresh from the store rather
// than from an up-front snapshot, so pages the device offloads while its
// own restore is running are served by later chunks instead of silently
// missed. A stream opened with From > 0 is a resume: the device already
// applied everything below From and the server just continues from there.
//
// Two orthogonal reductions apply on request. With FetchFlagDedup, chunks
// go out as hash-reference frames (MsgFetchChunkRef): the first occurrence
// of each content hash in the stream session carries the literal page,
// repeats carry only the hash — the per-session sent set guarantees every
// reference resolves from literals the device has already cached. With
// Anchor > 0, the stream is a checkpoint-anchored delta: only LPNs touched
// by a state-changing entry at or after the anchor are served, because
// everything else is bit-identical to what the device reconstructs from
// its own pre-anchor state.
func (s *Server) serveImageStream(ss *session, req nvmeoe.FetchReq) error {
	deviceID := ss.deviceID
	chunkPages := int(req.ChunkPages)
	if chunkPages <= 0 {
		chunkPages = DefaultRecoveryChunkPages
	}
	if chunkPages > MaxRecoveryChunkPages {
		chunkPages = MaxRecoveryChunkPages
	}
	// The stream is ledgered at open, its traffic at its end: a stream the
	// device cuts ends here only when the next write fails, which can be
	// after the device has already resumed on a fresh session.
	opened := RecoveryStats{Streams: 1}
	if req.From > 0 {
		opened.Resumes = 1
	}
	dedup := req.Flags&nvmeoe.FetchFlagDedup != 0
	only := s.Store.TouchedSince(deviceID, req.Anchor)
	if only != nil {
		opened.DeltaStreams = 1
	}
	s.addRecovery(deviceID, opened)
	var delta RecoveryStats
	var sent map[[oplog.HashSize]byte]struct{}
	var refPages []nvmeoe.RefPage
	if dedup {
		sent = make(map[[oplog.HashSize]byte]struct{})
		refPages = make([]nvmeoe.RefPage, 0, chunkPages)
	}
	from := req.From
	end := nvmeoe.StreamEnd{NextLPN: from}
	for {
		pages, next, more := s.Store.ImageRange(deviceID, from, ^uint64(0), req.Before, chunkPages, only)
		if len(pages) > 0 {
			var blob []byte
			var msg nvmeoe.MsgType
			var raw *bufpool.Buf
			var blobBuf *bufpool.Buf
			if dedup {
				refPages = refPages[:0]
				for i := range pages {
					p := &pages[i]
					rp := nvmeoe.RefPage{
						LPN:      p.LPN,
						WriteSeq: p.WriteSeq,
						StaleSeq: p.StaleSeq,
						Cause:    p.Cause,
						Hash:     p.Hash,
					}
					if _, dup := sent[p.Hash]; dup {
						rp.Ref = true
						delta.PagesRef++
						delta.BytesDedupSaved += uint64(len(p.Data))
					} else {
						rp.Data = p.Data
						sent[p.Hash] = struct{}{}
						delta.PagesLiteral++
					}
					refPages = append(refPages, rp)
				}
				raw = bufpool.Get(nvmeoe.RefChunkWireSize(refPages))
				raw.B = nvmeoe.AppendRefChunk(raw.B, deviceID, refPages)
				blobBuf = bufpool.Get(nvmeoe.BlobOverhead + len(raw.B))
				blobBuf.B = nvmeoe.AppendSegmentBlob(blobBuf.B, raw.B)
				blob = blobBuf.B
				msg = nvmeoe.MsgFetchChunkRef
			} else {
				seg := &oplog.Segment{DeviceID: deviceID, Pages: pages}
				blob = nvmeoe.EncodeSegmentBlob(seg.Marshal())
				msg = nvmeoe.MsgFetchChunk
			}
			err := ss.writeMsg(msg, blob)
			// Account before releasing: SegmentBlobLogicalSize reads the
			// blob bytes, and a released buffer may already be another
			// stream's encode target.
			logical := nvmeoe.SegmentBlobLogicalSize(blob)
			wire := len(blob)
			if raw != nil {
				raw.Release()
			}
			if blobBuf != nil {
				blobBuf.Release()
			}
			if err != nil {
				s.addRecovery(deviceID, delta)
				return err
			}
			end.Chunks++
			end.Pages += uint64(len(pages))
			end.NextLPN = next
			delta.Chunks++
			delta.Pages += uint64(len(pages))
			delta.BytesWire += uint64(wire)
			delta.BytesLogical += uint64(logical)
		}
		if !more || len(pages) == 0 {
			break
		}
		from = next
	}
	s.addRecovery(deviceID, delta)
	return ss.writeMsg(nvmeoe.MsgFetchEnd, end.Marshal())
}

// Client is the device-side handle to a remote server session. Calls are
// synchronous request/response, matching the single-queue offload engine.
type Client struct {
	mu   sync.Mutex
	conn *nvmeoe.Conn
}

// Dial authenticates over nc and returns a client.
func Dial(nc net.Conn, psk []byte, deviceID uint64) (*Client, error) {
	conn, err := nvmeoe.DeviceHandshake(nc, psk, deviceID)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close tears down the session.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is a server-reported failure.
type RemoteError struct {
	Code uint32
	Text string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote: server error %d: %s", e.Code, e.Text)
}

func (c *Client) roundTrip(t nvmeoe.MsgType, payload []byte, wantResp nvmeoe.MsgType) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.WriteMsg(t, payload); err != nil {
		return nil, err
	}
	typ, body, err := c.conn.ReadMsg()
	if err != nil {
		return nil, err
	}
	if typ == nvmeoe.MsgError {
		em, err := nvmeoe.UnmarshalErrorMsg(body)
		if err != nil {
			return nil, err
		}
		return nil, &RemoteError{Code: em.Code, Text: em.Text}
	}
	if typ != wantResp {
		return nil, fmt.Errorf("remote: unexpected response %v, want %v", typ, wantResp)
	}
	return body, nil
}

// PushSegment ships one segment and waits for the durability ack. The
// segment is codec-encoded here; callers that already hold the encoded
// wire form (the offload engine encodes at seal time to size the link
// model) should use PushSegmentBlob.
func (c *Client) PushSegment(seg *oplog.Segment) error {
	return c.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(seg.Marshal()), seg.LastSeq)
}

// PushSegmentBlob ships one codec-framed segment blob and waits for the
// durability ack covering lastSeq.
func (c *Client) PushSegmentBlob(blob []byte, lastSeq uint64) error {
	_, err := c.PushSegmentBlobTimed(blob, lastSeq)
	return err
}

// PushSegmentBlobTimed is PushSegmentBlob returning the storage tier's
// modeled Put service time carried in the ack (zero on free local tiers
// and on pre-tier-latency servers). The offload engine folds it into the
// simulated ack instant so device-side OffloadAckTime reflects the
// backend.
func (c *Client) PushSegmentBlobTimed(blob []byte, lastSeq uint64) (simclock.Duration, error) {
	body, err := c.roundTrip(nvmeoe.MsgSegment, blob, nvmeoe.MsgSegmentAck)
	if err != nil {
		return 0, err
	}
	ack, err := nvmeoe.UnmarshalAck(body)
	if err != nil {
		return 0, err
	}
	if ack.UpTo != lastSeq {
		return 0, fmt.Errorf("remote: ack up to %d, want %d", ack.UpTo, lastSeq)
	}
	return simclock.Duration(ack.SvcNs), nil
}

// PushCheckpoint ships one mapping snapshot and waits for the ack.
func (c *Client) PushCheckpoint(cp *nvmeoe.Checkpoint) error {
	_, err := c.roundTrip(nvmeoe.MsgCheckpoint, cp.Marshal(), nvmeoe.MsgCheckpointAck)
	return err
}

// fetchSegment round-trips one fetch request whose reply is a
// codec-framed segment marshal.
func (c *Client) fetchSegment(req nvmeoe.FetchReq) (*oplog.Segment, error) {
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	if err != nil {
		return nil, err
	}
	raw, err := nvmeoe.DecodeSegmentBlob(body)
	if err != nil {
		return nil, err
	}
	return oplog.UnmarshalSegment(raw)
}

// FetchEntries retrieves log entries with from <= Seq < to.
func (c *Client) FetchEntries(from, to uint64) ([]oplog.Entry, error) {
	seg, err := c.fetchSegment(nvmeoe.FetchReq{Kind: nvmeoe.FetchEntries, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return seg.Entries, nil
}

// FetchVersion retrieves the newest retained version of lpn written before
// the given sequence, reporting ok=false when none is stored.
func (c *Client) FetchVersion(lpn, before uint64) (oplog.PageRecord, bool, error) {
	seg, err := c.fetchSegment(nvmeoe.FetchReq{Kind: nvmeoe.FetchVersion, LPN: lpn, Before: before})
	if err != nil {
		return oplog.PageRecord{}, false, err
	}
	if len(seg.Pages) == 0 {
		return oplog.PageRecord{}, false, nil
	}
	return seg.Pages[0], true, nil
}

// FetchRange retrieves, for every LPN with from <= LPN < to, the newest
// retained version written before the given sequence — one targeted,
// codec-framed chunk of the image.
func (c *Client) FetchRange(from, to, before uint64) ([]oplog.PageRecord, error) {
	seg, err := c.fetchSegment(nvmeoe.FetchReq{Kind: nvmeoe.FetchRange, From: from, To: to, Before: before})
	if err != nil {
		return nil, err
	}
	return seg.Pages, nil
}

// ChunkStats describes one streamed restore chunk as the dedup-aware
// client saw it: wire and logical sizes plus how the pages arrived —
// full literal payloads or hash references resolved from the cache.
type ChunkStats struct {
	WireBytes    int
	LogicalBytes int
	Literals     int
	Refs         int
}

// FetchImageStream streams the point-in-time image before the given
// sequence as LPN-ordered chunks, invoking fn once per chunk with the
// decoded pages and the chunk's ChunkStats. from > 0 resumes an
// interrupted stream: only LPNs at or past it are served. The session is
// busy for the whole stream; if fn returns an error the stream is
// abandoned mid-flight and the session must be closed, which is exactly
// what a resuming restorer does.
//
// A non-nil cache requests hash-reference chunks (literals verified
// against their content hash before entering the cache; references
// resolved from it); with a nil cache every chunk is full-page literals.
// anchor > 0 requests a checkpoint-anchored delta (only LPNs touched at or
// after the anchor are streamed). The cache must outlive resumes of the
// same restore: references in a resumed session may point at literals
// delivered before the cut only if the server re-literals them (it does —
// the sent set is per session), so a fresh session is always
// self-contained, and the surviving cache merely dedups the copies.
func (c *Client) FetchImageStream(from, before, anchor uint64, chunkPages int, cache *ResolveCache, fn func(pages []oplog.PageRecord, cs ChunkStats) error) (nvmeoe.StreamEnd, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := nvmeoe.FetchReq{
		Kind: nvmeoe.FetchImageStream, From: from, Before: before,
		ChunkPages: uint32(chunkPages), Anchor: anchor,
	}
	if cache != nil {
		req.Flags |= nvmeoe.FetchFlagDedup
	}
	if err := c.conn.WriteMsg(nvmeoe.MsgFetch, req.Marshal()); err != nil {
		return nvmeoe.StreamEnd{}, err
	}
	var pages []oplog.PageRecord // scratch, reused across chunks
	for {
		typ, body, err := c.conn.ReadMsg()
		if err != nil {
			return nvmeoe.StreamEnd{}, err
		}
		switch typ {
		case nvmeoe.MsgFetchChunkRef:
			raw, err := nvmeoe.DecodeSegmentBlob(body)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			cs := ChunkStats{WireBytes: len(body), LogicalBytes: len(raw)}
			pages = pages[:0]
			if _, err := nvmeoe.WalkRefChunk(raw, func(p nvmeoe.RefPage) error {
				rec := oplog.PageRecord{
					LPN:      p.LPN,
					WriteSeq: p.WriteSeq,
					StaleSeq: p.StaleSeq,
					Cause:    p.Cause,
					Hash:     p.Hash,
				}
				if p.Ref {
					data, ok := cache.Lookup(p.Hash)
					if !ok {
						return fmt.Errorf("remote: unresolved hash reference for lpn %d", p.LPN)
					}
					rec.Data = data
					cs.Refs++
				} else {
					data, err := cache.Add(p.Hash, p.Data)
					if err != nil {
						return err
					}
					rec.Data = data
					cs.Literals++
				}
				pages = append(pages, rec)
				return nil
			}); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			if err := fn(pages, cs); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
		case nvmeoe.MsgFetchChunk:
			// Full-page chunk (dedup not requested): every page is a
			// literal.
			raw, err := nvmeoe.DecodeSegmentBlob(body)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			seg, err := oplog.UnmarshalSegment(raw)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			// The same trust boundary as ResolveCache.Add: a page is
			// checked against its hash once, here, before fn applies it.
			if err := seg.VerifyPages(); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			cs := ChunkStats{WireBytes: len(body), LogicalBytes: len(raw), Literals: len(seg.Pages)}
			if err := fn(seg.Pages, cs); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
		case nvmeoe.MsgFetchEnd:
			return nvmeoe.UnmarshalStreamEnd(body)
		case nvmeoe.MsgError:
			em, err := nvmeoe.UnmarshalErrorMsg(body)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			return nvmeoe.StreamEnd{}, &RemoteError{Code: em.Code, Text: em.Text}
		default:
			return nvmeoe.StreamEnd{}, fmt.Errorf("remote: unexpected message %v in image stream", typ)
		}
	}
}

// FetchCheckpoint retrieves the newest checkpoint at or before the given
// sequence.
func (c *Client) FetchCheckpoint(before uint64) (nvmeoe.Checkpoint, bool, error) {
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchCheckpoint, Before: before}
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	var re *RemoteError
	if errors.As(err, &re) && re.Code == CodeNotFound {
		return nvmeoe.Checkpoint{}, false, nil
	}
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	raw, err := nvmeoe.DecodeSegmentBlob(body)
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	cp, err := nvmeoe.UnmarshalCheckpoint(raw)
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	return cp, true, nil
}

// Head retrieves the remote chain state.
func (c *Client) Head() (nvmeoe.Head, error) {
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchHead}
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	if err != nil {
		return nvmeoe.Head{}, err
	}
	return nvmeoe.UnmarshalHead(body)
}

// Loopback wires a client to srv over an in-process pipe, starting a
// handler goroutine. It is the standard way simulations attach a device to
// its remote server without real networking.
func Loopback(srv *Server, psk []byte, deviceID uint64) (*Client, error) {
	dc, sc := net.Pipe()
	srv.Accept(sc)
	return Dial(dc, psk, deviceID)
}
