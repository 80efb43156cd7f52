package remote

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// buildPageSegments builds n chain-valid segments whose k pages each land
// on distinct LPNs (unlike buildSegments' 8-LPN wrap), so image streams
// cover a wide LPN range.
func buildPageSegments(deviceID uint64, n, k int) []*oplog.Segment {
	l := oplog.New()
	var segs []*oplog.Segment
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < k; i++ {
			lpn := uint64(s*k + i)
			data := []byte(fmt.Sprintf("page-%d", lpn))
			e := l.Append(oplog.KindWrite, simclock.Time(s*k+i), lpn, 0, lpn, 1, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 1,
				Hash: oplog.HashData(data), Data: data,
			})
		}
		seg.LastSeq = l.NextSeq()
		segs = append(segs, seg)
	}
	return segs
}

// TestImageRangeChunks walks the store's image in chunks and checks the
// walk reassembles exactly the monolithic image, in LPN order.
func TestImageRangeChunks(t *testing.T) {
	st := NewStore(NewMemStore())
	for _, seg := range buildPageSegments(1, 4, 10) {
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Image(1, 100)
	var got []oplog.PageRecord
	from := uint64(0)
	for {
		pages, next, more := st.ImageRange(1, from, ^uint64(0), 100, 7, nil)
		got = append(got, pages...)
		if !more || len(pages) == 0 {
			break
		}
		from = next
	}
	if len(got) != len(want) {
		t.Fatalf("chunked walk returned %d pages, monolith %d", len(got), len(want))
	}
	for i := range got {
		if got[i].LPN != want[i].LPN || got[i].WriteSeq != want[i].WriteSeq {
			t.Fatalf("page %d: chunked %+v, monolith %+v", i, got[i], want[i])
		}
	}
	// A bounded range returns only its half-open LPN window.
	pages, _, _ := st.ImageRange(1, 5, 9, 100, 100, nil)
	if len(pages) != 4 || pages[0].LPN != 5 || pages[3].LPN != 8 {
		t.Fatalf("bounded range = %d pages starting %d", len(pages), pages[0].LPN)
	}
}

// TestFetchImageStreamEndToEnd drives the chunked image stream over a real
// session and checks chunk ordering, the trailer, resume-from-LPN, and the
// server's restore ledger.
func TestFetchImageStreamEndToEnd(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	for _, seg := range buildPageSegments(5, 4, 10) {
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var streamed []oplog.PageRecord
	var chunks int
	end, err := cl.FetchImageStream(0, 100, 0, 8, nil, func(pages []oplog.PageRecord, cs ChunkStats) error {
		wire, logical := cs.WireBytes, cs.LogicalBytes
		if cs.Literals != len(pages) || cs.Refs != 0 {
			return fmt.Errorf("cacheless stream chunk stats %+v for %d pages", cs, len(pages))
		}
		if wire <= 0 || logical <= 0 || wire > logical+64 {
			return fmt.Errorf("implausible chunk sizes wire=%d logical=%d", wire, logical)
		}
		chunks++
		streamed = append(streamed, pages...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end.Pages != 40 || end.Chunks != uint64(chunks) || chunks != 5 {
		t.Fatalf("stream end = %+v over %d chunks", end, chunks)
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].LPN <= streamed[i-1].LPN {
			t.Fatalf("stream not LPN-ordered at %d", i)
		}
	}
	if end.NextLPN != streamed[len(streamed)-1].LPN+1 {
		t.Fatalf("NextLPN = %d, want %d", end.NextLPN, streamed[len(streamed)-1].LPN+1)
	}

	// Resume: a stream opened at LPN 25 serves only the tail.
	end2, err := cl.FetchImageStream(25, 100, 0, 8, nil, func(pages []oplog.PageRecord, _ ChunkStats) error {
		for _, p := range pages {
			if p.LPN < 25 {
				return fmt.Errorf("resumed stream re-served lpn %d", p.LPN)
			}
		}
		return nil
	})
	if err != nil || end2.Pages != 15 {
		t.Fatalf("resumed stream = %+v, %v", end2, err)
	}

	rs := srv.RecoveryStats(5)
	if rs.Streams != 2 || rs.Resumes != 1 || rs.Pages != 55 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	if rs.BytesWire == 0 || rs.BytesWire >= rs.BytesLogical {
		t.Fatalf("restore wire not compressed: %+v", rs)
	}

	// The session is still usable for ordinary requests after streaming.
	if h, err := cl.Head(); err != nil || h.NextSeq != 40 {
		t.Fatalf("post-stream head = %+v, %v", h, err)
	}
}

// TestFetchRange retrieves a targeted LPN window and the ledger counts it.
func TestFetchRange(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	for _, seg := range buildPageSegments(3, 2, 10) {
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Loopback(srv, psk, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pages, err := cl.FetchRange(4, 12, 100)
	if err != nil || len(pages) != 8 || pages[0].LPN != 4 {
		t.Fatalf("FetchRange = %d pages, %v", len(pages), err)
	}
	if rs := srv.RecoveryStats(3); rs.RangeFetches != 1 || rs.Pages != 8 {
		t.Fatalf("recovery stats = %+v", rs)
	}
}

// TestRecoveryLinkFairShare: with k sessions open, a chunk costs k times
// its solo transfer time plus RTT — the NIC is split fairly.
func TestRecoveryLinkFairShare(t *testing.T) {
	// 1 GB/s with a 1µs RTT: a 1 MB chunk takes 1ms solo.
	l := NewRecoveryLinkOn(netsim.New(netsim.Config{RTT: simclock.Microsecond, MBps: 1000}))
	const bytes = 1e6
	rel1 := l.Open()
	solo := l.ChunkTimeAt(bytes, 0)
	if want := simclock.Microsecond + simclock.Millisecond; solo != want {
		t.Fatalf("solo chunk = %v, want %v", solo, want)
	}
	rel2 := l.Open()
	rel3 := l.Open()
	if got := l.ChunkTimeAt(bytes, 0); got != simclock.Microsecond+3*simclock.Millisecond {
		t.Fatalf("3-way chunk = %v", got)
	}
	rel2()
	rel2() // release is idempotent
	rel3()
	if got := l.ChunkTimeAt(bytes, 0); got != solo {
		t.Fatalf("share not returned after release: %v", got)
	}
	rel1()
	if n := l.Arbiter().ActiveFlows(netsim.ClassRestore); n != 0 || l.PeakSessions() != 3 {
		t.Fatalf("active=%d peak=%d", n, l.PeakSessions())
	}
	// The private link prices transfers at the documented defaults.
	def := NewRecoveryLink()
	if def.Arbiter().LineMBps() != DefaultRecoveryMBps || def.Arbiter().RTT() != DefaultRecoveryRTT {
		t.Fatal("private link did not resolve the documented defaults")
	}
	if def.ChunkTimeAt(1<<20, 0) <= DefaultRecoveryRTT {
		t.Fatal("default link priced a chunk at no more than its RTT")
	}
}
