package core

// This file is the recovery subsystem: everything that reconstructs device
// state from the retained history — local pins, the operation log, and the
// remote store — lives here.
//
//   - Reopen adopts an existing flash array after a power cycle, splicing
//     the post-reboot log onto the remote chain head.
//   - VersionBefore / ImageBefore answer point-in-time queries across the
//     live mapping, local pins, and the remote store; the remote part of
//     an image rides the chunked FetchImageStream.
//   - RestoreWrite / RestoreTrim are the logged primitives that roll a
//     page back, stamping the evidence chain with recovery entries.
//   - RestoreImage is the resumable restorer: it streams the image in
//     LPN-ordered codec-framed chunks over its own recovery session,
//     applies pages incrementally as chunks arrive, survives mid-stream
//     disconnects by redialing and resuming from its cursor, charges
//     transfer time to a shared-bandwidth recovery link model, and
//     reports a per-device RTO. Fleet power-cycle recovery and the
//     rollback paths in internal/recovery both drive it.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// DialFunc produces a fresh authenticated session to the remote server.
// The offload engine uses it to redial after a session death; the
// restorer uses it to open (and resume) recovery sessions.
type DialFunc func() (*remote.Client, error)

// ErrNoDial reports a resumable restore attempted without a dial factory.
var ErrNoDial = errors.New("core: restore needs a dial factory (RestoreOptions.Dial or Config.Dial)")

// --- Power-cycle adoption -------------------------------------------------

// Reopen adopts an existing device image after a power cycle: it scans the
// flash OOB area, replays the remotely stored operation log to
// reconstruct the exact logical mapping (including trims, which OOB alone
// cannot express), re-pins every committed stale version so conservative
// retention survives the reboot, and resumes the hash chain at the remote
// head so post-reboot segments splice on without a break.
//
// Durability model: state covered by offloaded log entries is recovered
// exactly. Flash pages whose OOB sequence is beyond the remote head belong
// to operations whose log entries died in device RAM; Reopen rolls them
// back (discards them), the same way a journaled filesystem drops an
// uncommitted tail. A clean shutdown (OffloadNow before power-off) makes
// the rollback window empty. The hardware RSSD persists its log pages to
// flash and would recover that tail too; modeling the rollback keeps the
// chain semantics honest without simulating log-page writes.
func Reopen(cfg Config, dev *nand.Device, client *remote.Client) (*RSSD, error) {
	if client == nil {
		return nil, ErrNoRemote
	}
	head, err := client.Head()
	if err != nil {
		return nil, fmt.Errorf("core: reopen: fetch head: %w", err)
	}
	// Replay the committed operation history.
	type op struct {
		seq  uint64
		kind oplog.Kind
	}
	hist := map[uint64][]op{}
	liveSeq := map[uint64]uint64{}
	trimmed := map[uint64]bool{}
	const batch = 4096
	for from := uint64(0); from < head.NextSeq; from += batch {
		to := from + batch
		if to > head.NextSeq {
			to = head.NextSeq
		}
		entries, err := client.FetchEntries(from, to)
		if err != nil {
			return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): %w", from, to, err)
		}
		for _, e := range entries {
			switch e.Kind {
			case oplog.KindWrite, oplog.KindRecovery:
				liveSeq[e.LPN] = e.Seq
				trimmed[e.LPN] = false
				hist[e.LPN] = append(hist[e.LPN], op{e.Seq, e.Kind})
			case oplog.KindTrim, oplog.KindRecoveryTrim:
				trimmed[e.LPN] = true
				hist[e.LPN] = append(hist[e.LPN], op{e.Seq, e.Kind})
			}
		}
	}

	// Build the device shell (the FTL wires itself to it via Retainer).
	cfg = cfg.normalize()
	r := &RSSD{
		cfg:           cfg,
		log:           oplog.ResumeFrom(head.NextSeq, head.Hash),
		client:        client,
		retained:      map[uint64]*retEntry{},
		retByLPN:      map[uint64][]*retEntry{},
		offloadedUpTo: head.NextSeq,
		stagedUpTo:    head.NextSeq,
	}

	// Classify every programmed page from its OOB stamp + the replayed
	// history, remembering retained pages for index reconstruction.
	type scanned struct {
		ppn uint64
		oob nand.OOB
	}
	var kept []scanned
	classify := func(ppn uint64, oob nand.OOB) ftl.Disposition {
		if oob.Seq >= head.NextSeq {
			return ftl.DispDiscard // uncommitted tail: rolled back
		}
		if ls, ok := liveSeq[oob.LPN]; ok && !trimmed[oob.LPN] && oob.Seq == ls {
			return ftl.DispLive
		}
		kept = append(kept, scanned{ppn, oob})
		return ftl.DispRetained
	}
	f, err := ftl.Recover(cfg.FTL, dev, r, classify)
	if err != nil {
		return nil, fmt.Errorf("core: reopen: %w", err)
	}
	r.f = f

	// Live write sequences.
	r.lpnWriteSeq = make([]uint64, f.LogicalPages())
	for i := range r.lpnWriteSeq {
		r.lpnWriteSeq[i] = NoSeq
	}
	for lpn, ls := range liveSeq {
		if !trimmed[lpn] && lpn < uint64(len(r.lpnWriteSeq)) {
			r.lpnWriteSeq[lpn] = ls
		}
	}

	// Rebuild the retention index. Each kept page's staleSeq and cause
	// come from the first mapping-changing operation after its write.
	for _, s := range kept {
		re := &retEntry{
			ppn:      s.ppn,
			lpn:      s.oob.LPN,
			writeSeq: s.oob.Seq,
			staleSeq: s.oob.Seq + 1,
			cause:    ftl.CauseOverwrite,
		}
		ops := hist[s.oob.LPN]
		i := sort.Search(len(ops), func(i int) bool { return ops[i].seq > s.oob.Seq })
		if i < len(ops) {
			re.staleSeq = ops[i].seq
			if ops[i].kind == oplog.KindTrim || ops[i].kind == oplog.KindRecoveryTrim {
				re.cause = ftl.CauseTrim
			}
		}
		r.retained[s.ppn] = re
		r.retByLPN[s.oob.LPN] = append(r.retByLPN[s.oob.LPN], re)
		r.retQueue = append(r.retQueue, re)
	}
	for _, vs := range r.retByLPN {
		sort.Slice(vs, func(i, j int) bool { return vs[i].writeSeq < vs[j].writeSeq })
	}
	sort.Slice(r.retQueue, func(i, j int) bool { return r.retQueue[i].staleSeq < r.retQueue[j].staleSeq })
	return r, nil
}

// --- Point-in-time queries ------------------------------------------------

// VersionInfo describes one retained version of a logical page, wherever
// it currently lives.
type VersionInfo struct {
	LPN      uint64
	WriteSeq uint64
	StaleSeq uint64 // NoSeq for the live version
	Cause    ftl.StaleCause
	Local    bool // true: still pinned on local flash
}

// RetainedVersions lists the locally retained versions of lpn in writeSeq
// order (oldest first). Remote versions are not included; query the remote
// store for those.
func (r *RSSD) RetainedVersions(lpn uint64) []VersionInfo {
	var out []VersionInfo
	for _, re := range r.retByLPN[lpn] {
		if re.released {
			continue
		}
		out = append(out, VersionInfo{
			LPN: re.lpn, WriteSeq: re.writeSeq, StaleSeq: re.staleSeq,
			Cause: re.cause, Local: true,
		})
	}
	return out
}

// WriteSeqOf returns the log sequence of the live version of lpn, or NoSeq
// if the page is unmapped.
func (r *RSSD) WriteSeqOf(lpn uint64) uint64 {
	if lpn >= uint64(len(r.lpnWriteSeq)) {
		return NoSeq
	}
	return r.lpnWriteSeq[lpn]
}

// candidate is one version of a page competing to be "the newest before a
// sequence": the live mapping, a local pin, or a remote record.
type candidate struct {
	writeSeq uint64
	staleSeq uint64 // NoSeq if live
	cause    ftl.StaleCause
	live     bool
	ppn      uint64 // local location when rec is nil
	rec      *oplog.PageRecord
}

// localBest returns the newest local version of lpn written strictly
// before the given sequence: the live mapping if it qualifies, else the
// newest qualifying pin. nil when no local version qualifies.
func (r *RSSD) localBest(lpn, before uint64) *candidate {
	var best *candidate
	if ws := r.lpnWriteSeq[lpn]; ws != NoSeq && ws < before {
		best = &candidate{writeSeq: ws, staleSeq: NoSeq, live: true, ppn: r.f.Lookup(lpn)}
	}
	vs := r.retByLPN[lpn]
	for i := len(vs) - 1; i >= 0; i-- {
		re := vs[i]
		if re.released || re.writeSeq == NoSeq || re.writeSeq >= before {
			continue
		}
		if best == nil || re.writeSeq > best.writeSeq {
			best = &candidate{writeSeq: re.writeSeq, staleSeq: re.staleSeq, cause: re.cause, ppn: re.ppn}
		}
		break // list is sorted; the first qualifying from the end is the newest
	}
	return best
}

// merge folds a remote record into the best-so-far candidate.
func merge(best *candidate, rec *oplog.PageRecord) *candidate {
	if rec == nil || (best != nil && rec.WriteSeq <= best.writeSeq) {
		return best
	}
	return &candidate{
		writeSeq: rec.WriteSeq, staleSeq: rec.StaleSeq,
		cause: ftl.StaleCause(rec.Cause), rec: rec,
	}
}

// trimGap reports whether the winning candidate means the page read as
// zeroes at the cut: it was already trimmed-stale before it. (An
// overwrite-staled best implies a newer version exists and would have
// been chosen; if it was dropped in offline mode, the older data is the
// best surviving restore.)
func trimGap(best *candidate, before uint64) bool {
	return best.staleSeq != NoSeq && best.staleSeq < before && best.cause == ftl.CauseTrim
}

// ReadVersionBefore returns the contents lpn held just before log sequence
// `before`. See VersionBefore for the full contract.
func (r *RSSD) ReadVersionBefore(lpn, before uint64, at simclock.Time) ([]byte, bool, error) {
	data, _, ok, err := r.VersionBefore(lpn, before, at)
	return data, ok, err
}

// VersionBefore returns the contents lpn held just before log sequence
// `before`: the newest version written with seq < before that was still
// live at that point. It consults, in order of preference, the live
// mapping, locally retained pins, and the remote store. A page that was
// trimmed before `before` (and not rewritten) reads as zeroes, matching
// what the host would have observed.
//
// writeSeq is the log sequence of the write that produced the returned
// data, or NoSeq when the result is the zero page (never written, or a
// trim gap); recovery uses it to verify restored content against the
// log's recorded hash.
func (r *RSSD) VersionBefore(lpn, before uint64, at simclock.Time) (data []byte, writeSeq uint64, ok bool, err error) {
	if lpn >= r.f.LogicalPages() {
		return nil, NoSeq, false, ftl.ErrOutOfRange
	}
	best := r.localBest(lpn, before)
	if r.client != nil {
		rec, ok, err := r.client.FetchVersion(lpn, before)
		if err != nil {
			return nil, NoSeq, false, fmt.Errorf("core: fetch version lpn %d: %w", lpn, err)
		}
		if ok {
			best = merge(best, &rec)
		}
	}
	if best == nil {
		// Never written before `before`: logical zeroes.
		return make([]byte, r.f.PageSize()), NoSeq, false, nil
	}
	if trimGap(best, before) {
		return make([]byte, r.f.PageSize()), NoSeq, true, nil
	}
	if best.rec != nil {
		return append([]byte(nil), best.rec.Data...), best.writeSeq, true, nil
	}
	data, _, _, err = r.f.ReadPhysical(best.ppn, at)
	if err != nil {
		return nil, NoSeq, false, fmt.Errorf("core: read version ppn %d: %w", best.ppn, err)
	}
	return data, best.writeSeq, true, nil
}

// ImageBefore reconstructs the full logical image as it stood just before
// log sequence `before`. The result has one entry per logical page: nil
// means the page read as zeroes at that point (never written, or inside a
// trim gap). Remote versions arrive through the chunked image stream —
// codec-framed on the wire like every other fetch — so rebuilding a whole
// device costs a stream of right-sized chunks rather than one monolithic
// reply. This is the disaster-recovery query ("rebuild onto a fresh
// device"); RestoreImage is the in-place rollback built on the same
// stream.
func (r *RSSD) ImageBefore(before uint64, at simclock.Time) ([][]byte, error) {
	n := r.f.LogicalPages()
	best := make([]*candidate, n)
	for lpn := uint64(0); lpn < n; lpn++ {
		best[lpn] = r.localBest(lpn, before)
	}
	if r.client != nil {
		_, err := r.client.FetchImageStream(0, before, 0, r.cfg.RecoveryChunkPages, nil,
			func(pages []oplog.PageRecord, cs remote.ChunkStats) error {
				r.stats.RestoreBytesWire += uint64(cs.WireBytes)
				r.stats.RestoreBytesLogical += uint64(cs.LogicalBytes)
				for i := range pages {
					if lpn := pages[i].LPN; lpn < n {
						best[lpn] = merge(best[lpn], &pages[i])
					}
				}
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("core: fetch image: %w", err)
		}
	}
	img := make([][]byte, n)
	for lpn := uint64(0); lpn < n; lpn++ {
		b := best[lpn]
		if b == nil || trimGap(b, before) {
			continue // zeroes
		}
		if b.rec != nil {
			img[lpn] = append([]byte(nil), b.rec.Data...)
			continue
		}
		data, _, _, err := r.f.ReadPhysical(b.ppn, at)
		if err != nil {
			return nil, fmt.Errorf("core: image read lpn %d (ppn %d): %w", lpn, b.ppn, err)
		}
		img[lpn] = data
	}
	return img, nil
}

// --- Logged restore primitives --------------------------------------------

// RestoreWrite rewrites lpn with recovered data, logging the operation as
// a recovery action so the evidence chain distinguishes restoration from
// host activity.
func (r *RSSD) RestoreWrite(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	if len(data) != r.f.PageSize() {
		return at, ftl.ErrBadPageSize
	}
	if lpn >= r.f.LogicalPages() {
		return at, ftl.ErrOutOfRange
	}
	oldPPN := r.f.Lookup(lpn)
	e := r.log.Append(oplog.KindRecovery, at, lpn, oldPPN, ftl.NoPPN, 0, oplog.HashData(data))
	r.curStaleSeq, r.curStaleAt = e.Seq, at
	done, err := r.f.WriteWithSeq(lpn, data, e.Seq, at)
	if err != nil {
		return done, err
	}
	r.lpnWriteSeq[lpn] = e.Seq
	return r.afterOp(done)
}

// RestoreTrim restores a page to the unmapped (zero) state, logging it as
// a recovery action. Used when the pre-attack state of a page was "never
// written" or "trimmed by the legitimate owner".
func (r *RSSD) RestoreTrim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	if lpn >= r.f.LogicalPages() {
		return at, ftl.ErrOutOfRange
	}
	oldPPN := r.f.Lookup(lpn)
	e := r.log.Append(oplog.KindRecoveryTrim, at, lpn, oldPPN, ftl.NoPPN, 0, [oplog.HashSize]byte{})
	r.curStaleSeq, r.curStaleAt = e.Seq, at
	done, err := r.f.Trim(lpn, at)
	if err != nil {
		return done, err
	}
	r.lpnWriteSeq[lpn] = NoSeq
	return r.afterOp(done)
}

// --- The resumable restorer -----------------------------------------------

// RestoreOptions tunes a resumable image restore.
type RestoreOptions struct {
	// Dial opens recovery sessions; nil falls back to Config.Dial. The
	// restorer owns its sessions: restore streams never interleave with
	// the offload engine's pushes, so restore-churn offload proceeds while
	// the image is still streaming in.
	Dial DialFunc
	// Link is the shared-bandwidth recovery link model; chunk transfer
	// time is charged through it. nil prices transfers at zero.
	Link *remote.RecoveryLink
	// ChunkPages bounds pages per streamed chunk (0: server default).
	ChunkPages int
	// BackoffBase / BackoffMax bound the resume backoff after a mid-stream
	// disconnect (defaults: the config's redial backoff knobs).
	BackoffBase simclock.Duration
	BackoffMax  simclock.Duration
	// MaxResumes bounds how many stream interruptions the restorer rides
	// out before giving up (default 8).
	MaxResumes int
	// Dedup requests hash-reference chunks: each unique page content
	// crosses the wire once per restore as a verified literal; repeats
	// arrive as 32-byte references resolved from a device-side cache that
	// survives resumes.
	Dedup bool
	// Delta requests a checkpoint-anchored delta: the restorer anchors on
	// the newest checkpoint at or before the cut and the server streams
	// only LPNs touched since — everything else is reconstructed from the
	// device's own surviving state, exactly as the local-only fallback
	// already does for LPNs without remote history.
	Delta bool
}

// RestoreReport summarizes one resumable restore.
type RestoreReport struct {
	PagesRestored int // rolled back by a logged recovery write
	PagesZeroed   int // rolled back to unmapped (trim gap / never written)
	PagesKept     int // live state already matched the target
	Chunks        int
	Resumes       int // mid-stream disconnects survived
	BytesWire     uint64
	BytesLogical  uint64
	// PagesLiteral / PagesRef split streamed pages by wire form: full
	// payloads vs hash references resolved from the dedup cache. Anchor
	// is the checkpoint sequence a delta restore diffed against (0: full
	// image).
	PagesLiteral int
	PagesRef     int
	Anchor       uint64
	RTO          simclock.Duration // simulated start-to-done restore span
}

func (rep RestoreReport) String() string {
	return fmt.Sprintf("restore: %d rolled back, %d zeroed, %d kept in %d chunks (%d resumes), %d wire / %d logical bytes, %d literal + %d ref pages (anchor %d), RTO %v",
		rep.PagesRestored, rep.PagesZeroed, rep.PagesKept, rep.Chunks, rep.Resumes,
		rep.BytesWire, rep.BytesLogical, rep.PagesLiteral, rep.PagesRef, rep.Anchor, rep.RTO)
}

// restoreApplyError marks a device-side failure inside the stream callback
// so the resume loop can tell it from a transport failure: redialing does
// not fix a flash write error.
type restoreApplyError struct{ err error }

func (e *restoreApplyError) Error() string { return e.err.Error() }
func (e *restoreApplyError) Unwrap() error { return e.err }

// RestoreImage rolls the whole device back to its state just before log
// sequence `before`, in place. Remote history streams in LPN-ordered
// codec-framed chunks over a dedicated recovery session and pages are
// applied incrementally as each chunk lands — there is never a
// whole-image buffer, and a restore interrupted at chunk k resumes at its
// cursor instead of restarting. Every applied page is a logged recovery
// action, so rollback remains evidence-chain honest, and pages whose live
// content already matches the target are left untouched (a clean page
// costs no flash write). Reopen + RestoreImage is the fleet power-cycle
// recovery path; the forensic rollback in internal/recovery reuses the
// same restorer.
func (r *RSSD) RestoreImage(before uint64, opts RestoreOptions, at simclock.Time) (simclock.Time, RestoreReport, error) {
	var rep RestoreReport
	dial := opts.Dial
	if dial == nil {
		dial = r.cfg.Dial
	}
	if dial == nil {
		return at, rep, ErrNoDial
	}
	if opts.MaxResumes <= 0 {
		opts.MaxResumes = 8
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = r.cfg.RedialBackoff
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = r.cfg.RedialBackoffMax
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = opts.BackoffBase
	}
	if opts.Link != nil {
		release := opts.Link.Open()
		defer release()
	}

	start := at
	n := r.f.LogicalPages()
	cursor := uint64(0) // next LPN not yet rolled back

	// The resolve cache outlives resumes: literals cached before a cut
	// stay resolvable after it (a fresh stream session re-literals what it
	// references anyway, so the cache only dedups copies).
	var cache *remote.ResolveCache
	if opts.Dedup {
		cache = remote.NewResolveCache()
	}
	anchor := uint64(0)
	anchorKnown := !opts.Delta

	applyChunk := func(pages []oplog.PageRecord, cs remote.ChunkStats) error {
		if opts.Link != nil {
			at = at.Add(opts.Link.ChunkTimeAt(cs.WireBytes, at))
		}
		rep.Chunks++
		rep.BytesWire += uint64(cs.WireBytes)
		rep.BytesLogical += uint64(cs.LogicalBytes)
		rep.PagesLiteral += cs.Literals
		rep.PagesRef += cs.Refs
		r.stats.RestoreBytesWire += uint64(cs.WireBytes)
		r.stats.RestoreBytesLogical += uint64(cs.LogicalBytes)
		r.stats.RestorePagesLiteral += uint64(cs.Literals)
		r.stats.RestorePagesDelta += uint64(cs.Refs)
		for i := range pages {
			rec := &pages[i]
			if rec.LPN < cursor || rec.LPN >= n {
				continue
			}
			// LPNs between the cursor and this record have no remote
			// version: roll them back from local state alone.
			var err error
			if at, err = r.restoreSpan(cursor, rec.LPN, before, at, &rep); err != nil {
				return &restoreApplyError{err}
			}
			if at, err = r.restoreLPN(rec.LPN, before, rec, at, &rep); err != nil {
				return &restoreApplyError{err}
			}
			cursor = rec.LPN + 1
		}
		return nil
	}

	client, err := dial()
	backoff := opts.BackoffBase
	for attempts := 0; ; {
		if err == nil && !anchorKnown {
			// Resolve the delta anchor once: the newest verified
			// checkpoint at or before the cut. No checkpoint means no
			// anchor — the stream degrades to the full image. A failed
			// lookup is a transport error and retries like a failed dial.
			cp, ok, cperr := client.FetchCheckpoint(before)
			if cperr != nil {
				err = cperr
				client.Close()
			} else {
				if ok {
					anchor = cp.Seq
					rep.Anchor = anchor
				}
				anchorKnown = true
			}
		}
		if err == nil {
			_, err = client.FetchImageStream(cursor, before, anchor, opts.ChunkPages, cache, applyChunk)
			if err == nil {
				client.Close()
				break
			}
			client.Close()
			var apply *restoreApplyError
			if errors.As(err, &apply) {
				return at, rep, fmt.Errorf("core: restore: %w", apply.err)
			}
			// A stream was interrupted mid-flight: that, and only that,
			// is a resume — the next stream picks up at the cursor, it
			// does not start over. A failed dial retries below without
			// claiming a resume (no stream ever opened).
			rep.Resumes++
		}
		attempts++
		if attempts > opts.MaxResumes {
			return at, rep, fmt.Errorf("core: restore: gave up after %d attempts: %w", opts.MaxResumes, err)
		}
		at = at.Add(backoff)
		if backoff *= 2; backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
		client, err = dial()
	}
	// The stream covered every LPN with remote history; finish the tail
	// from local state.
	var serr error
	if at, serr = r.restoreSpan(cursor, n, before, at, &rep); serr != nil {
		return at, rep, fmt.Errorf("core: restore: %w", serr)
	}
	rep.RTO = at.Sub(start)
	return at, rep, nil
}

// restoreSpan rolls back every LPN in [from, to) using local candidates
// only (the stream had no remote version for them).
func (r *RSSD) restoreSpan(from, to, before uint64, at simclock.Time, rep *RestoreReport) (simclock.Time, error) {
	for lpn := from; lpn < to; lpn++ {
		var err error
		if at, err = r.restoreLPN(lpn, before, nil, at, rep); err != nil {
			return at, err
		}
	}
	return at, nil
}

// restoreLPN rolls one page back to its newest version before the cut,
// considering the live mapping, local pins, and the streamed remote
// record (nil when the remote has none for this LPN).
func (r *RSSD) restoreLPN(lpn, before uint64, rec *oplog.PageRecord, at simclock.Time, rep *RestoreReport) (simclock.Time, error) {
	best := merge(r.localBest(lpn, before), rec)
	if best == nil || trimGap(best, before) {
		// Target state is zeroes: trim only if the page currently maps.
		if r.lpnWriteSeq[lpn] == NoSeq {
			rep.PagesKept++
			return at, nil
		}
		at, err := r.RestoreTrim(lpn, at)
		if err != nil {
			return at, fmt.Errorf("zero lpn %d: %w", lpn, err)
		}
		rep.PagesZeroed++
		return at, nil
	}
	if best.live {
		// The live version is already the newest-before-cut: no churn.
		rep.PagesKept++
		return at, nil
	}
	var data []byte
	if best.rec != nil {
		data = append([]byte(nil), best.rec.Data...)
	} else {
		var err error
		if data, _, _, err = r.f.ReadPhysical(best.ppn, at); err != nil {
			return at, fmt.Errorf("read pin for lpn %d (ppn %d): %w", lpn, best.ppn, err)
		}
	}
	at, err := r.RestoreWrite(lpn, data, at)
	if err != nil {
		return at, fmt.Errorf("restore lpn %d: %w", lpn, err)
	}
	rep.PagesRestored++
	return at, nil
}
