package remote

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// dedupContent is the shared content pool for dedup tests: poolN distinct
// page payloads, assigned to LPNs round-robin so every content appears
// many times per device and on every device.
func dedupContent(poolN int) [][]byte {
	pool := make([][]byte, poolN)
	for i := range pool {
		pool[i] = bytes.Repeat([]byte(fmt.Sprintf("content-%02d|", i)), 24)
	}
	return pool
}

// buildDedupSegments builds n chain-valid segments of k pages each on
// distinct LPNs whose payloads cycle through the shared pool.
func buildDedupSegments(deviceID uint64, n, k int, pool [][]byte) []*oplog.Segment {
	l := oplog.New()
	var segs []*oplog.Segment
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < k; i++ {
			lpn := uint64(s*k + i)
			data := pool[int(lpn)%len(pool)]
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

// TestMixedLegacyDedupRestore checks that one store serves the identical
// image through all three wire forms — the legacy full-page chunk stream,
// the hash-reference stream, and a mixed restore that starts legacy and
// resumes deduped — and that the dedup form actually moves fewer bytes.
func TestMixedLegacyDedupRestore(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	pool := dedupContent(8)
	for _, seg := range buildDedupSegments(7, 5, 8, pool) { // 40 pages, 8 unique
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Loopback(srv, psk, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	collect := func(dedup bool, from uint64) (pages []oplog.PageRecord, wire, refs int) {
		var cache *ResolveCache
		if dedup {
			cache = NewResolveCache()
		}
		_, err := cl.FetchImageStream(from, 100, 0, 8, cache, func(ps []oplog.PageRecord, cs ChunkStats) error {
			for _, p := range ps {
				p.Data = append([]byte(nil), p.Data...)
				pages = append(pages, p)
			}
			wire += cs.WireBytes
			refs += cs.Refs
			return nil
		})
		if err != nil {
			t.Fatalf("stream (dedup=%v from=%d): %v", dedup, from, err)
		}
		return pages, wire, refs
	}

	legacy, legacyWire, legacyRefs := collect(false, 0)
	deduped, dedupWire, dedupRefs := collect(true, 0)
	if legacyRefs != 0 {
		t.Fatalf("legacy stream carried %d hash refs", legacyRefs)
	}
	if dedupRefs == 0 {
		t.Fatal("dedup stream resolved no hash refs over a duplicated image")
	}
	if len(legacy) != 40 || len(deduped) != len(legacy) {
		t.Fatalf("page counts: legacy %d, dedup %d", len(legacy), len(deduped))
	}
	for i := range legacy {
		l, d := legacy[i], deduped[i]
		if l.LPN != d.LPN || l.WriteSeq != d.WriteSeq || !bytes.Equal(l.Data, d.Data) {
			t.Fatalf("page %d differs across wire forms: legacy %+v, dedup %+v", i, l, d)
		}
		if want := pool[int(l.LPN)%len(pool)]; !bytes.Equal(l.Data, want) {
			t.Fatalf("lpn %d content wrong", l.LPN)
		}
	}
	if dedupWire >= legacyWire {
		t.Fatalf("dedup wire %d not smaller than legacy %d", dedupWire, legacyWire)
	}

	// A mixed restore: first half over the legacy path, resume at the
	// cursor over hash-ref frames. The splice must be seamless — the
	// resumed session re-literals anything it references, so a cache that
	// saw none of the first half still resolves everything.
	var mixed []oplog.PageRecord
	head, _, _ := collect(false, 0)
	for _, p := range head[:20] {
		mixed = append(mixed, p)
	}
	tail, _, tailRefs := collect(true, mixed[len(mixed)-1].LPN+1)
	mixed = append(mixed, tail...)
	if tailRefs == 0 {
		t.Fatal("resumed dedup stream resolved no refs")
	}
	if len(mixed) != len(legacy) {
		t.Fatalf("mixed restore covered %d pages, want %d", len(mixed), len(legacy))
	}
	for i := range mixed {
		if mixed[i].LPN != legacy[i].LPN || !bytes.Equal(mixed[i].Data, legacy[i].Data) {
			t.Fatalf("mixed restore page %d differs from legacy", i)
		}
	}
}

// TestDedupRefcountConcurrent hammers the chunk index from three sides at
// once — per-device offload ingest, restore reads, and segment expiry
// (DropSegmentPages) — across devices sharing one content pool, then
// checks the refcount ledger balances exactly and no surviving version
// lost its payload. Runs under -race in CI.
func TestDedupRefcountConcurrent(t *testing.T) {
	const (
		devices = 4
		segs    = 6 // odd-indexed segments are dropped as they age
		pages   = 8
		poolN   = 16
	)
	st := NewStore(NewMemStore())
	pool := dedupContent(poolN)

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	errCh := make(chan error, 2*devices)
	for dev := 1; dev <= devices; dev++ {
		writers.Add(1)
		// Writer: append this device's chain in order, expiring each odd
		// segment once its successor lands (and the last one at the end).
		go func(dev uint64) {
			defer writers.Done()
			for i, seg := range buildDedupSegments(dev, segs, pages, pool) {
				if err := st.AppendSegment(seg); err != nil {
					errCh <- fmt.Errorf("device %d append %d: %w", dev, i, err)
					return
				}
				if i%2 == 0 && i > 0 {
					if err := st.DropSegmentPages(dev, i-1); err != nil {
						errCh <- fmt.Errorf("device %d drop %d: %w", dev, i-1, err)
						return
					}
				}
			}
			if err := st.DropSegmentPages(dev, segs-1); err != nil {
				errCh <- fmt.Errorf("device %d drop %d: %w", dev, segs-1, err)
			}
		}(uint64(dev))
		readers.Add(1)
		// Reader: restore-style chunked image walks while ingest and
		// expiry churn; every page served must carry its true content.
		go func(dev uint64) {
			defer readers.Done()
			for !done.Load() {
				from := uint64(0)
				for {
					ps, next, more := st.ImageRange(dev, from, ^uint64(0), 1<<40, 8, nil)
					for _, p := range ps {
						if want := pool[int(p.LPN)%poolN]; !bytes.Equal(p.Data, want) {
							errCh <- fmt.Errorf("device %d lpn %d served wrong or freed content", dev, p.LPN)
							return
						}
					}
					if !more || len(ps) == 0 {
						break
					}
					from = next
				}
			}
		}(uint64(dev))
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Ledger balance: even segments survive on every device, odd ones are
	// dropped. Every surviving version holds exactly one chunk reference.
	surviving := 0
	wantContents := map[int]bool{}
	for dev := 1; dev <= devices; dev++ {
		for s := 0; s < segs; s += 2 {
			for i := 0; i < pages; i++ {
				surviving++
				wantContents[(s*pages+i)%poolN] = true
			}
		}
	}
	ds := st.Dedup()
	if ds.TotalRefs != int64(surviving) {
		t.Fatalf("chunk refs = %d, want %d surviving versions", ds.TotalRefs, surviving)
	}
	if ds.UniquePages != len(wantContents) {
		t.Fatalf("unique chunks = %d, want %d distinct contents", ds.UniquePages, len(wantContents))
	}
	// Every surviving version still reads back its true bytes; every
	// dropped version is gone.
	for dev := 1; dev <= devices; dev++ {
		for s := 0; s < segs; s++ {
			for i := 0; i < pages; i++ {
				lpn := uint64(s*pages + i)
				rec, ok := st.Version(uint64(dev), lpn, 1<<40)
				if s%2 == 1 {
					if ok {
						t.Fatalf("device %d lpn %d survived its segment drop", dev, lpn)
					}
					continue
				}
				if !ok || !bytes.Equal(rec.Data, pool[int(lpn)%poolN]) {
					t.Fatalf("device %d lpn %d lost its payload after expiry churn", dev, lpn)
				}
			}
		}
	}
}
