package nvmeoe

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/oplog"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// workloadSegments builds offload segments the way the device does — one
// chained log entry per page write, plus the retained stale pages — from a
// workload generator's page content. cipherEvery > 0 replaces every
// cipherEvery-th page with random bytes, as an encryptor's output would be.
func workloadSegments(tb testing.TB, profile string, cipherEvery, nseg int) [][]byte {
	tb.Helper()
	prof, ok := workload.ProfileByName(profile)
	if !ok {
		tb.Fatalf("no workload profile %q", profile)
	}
	const (
		pageSize       = 4096
		writesPerSeg   = 96
		retainedPerSeg = 48
	)
	g := workload.NewGenerator(prof, pageSize, 1<<16, 1)
	rng := rand.New(rand.NewSource(2))
	l := oplog.New()
	var segs [][]byte
	n := 0
	for s := 0; s < nseg; s++ {
		seg := &oplog.Segment{DeviceID: 1}
		for w := 0; w < writesPerSeg; w++ {
			page := g.Content()
			n++
			if cipherEvery > 0 && n%cipherEvery == 0 {
				rng.Read(page)
			}
			e := l.Append(oplog.KindWrite, simclock.Time(n), uint64(rng.Intn(1<<16)), uint64(n), uint64(n+1), 3.5, oplog.HashData(page))
			seg.Entries = append(seg.Entries, e)
			if w < retainedPerSeg {
				seg.Pages = append(seg.Pages, oplog.PageRecord{
					LPN: e.LPN, WriteSeq: e.Seq, StaleSeq: e.Seq + 1, Hash: e.DataHash, Data: page,
				})
			}
		}
		seg.FirstSeq, seg.LastSeq = seg.Entries[0].Seq, seg.Entries[len(seg.Entries)-1].Seq+1
		segs = append(segs, seg.Marshal())
	}
	return segs
}

// BenchmarkCodecWorkload measures the segment codec on generator pages, the
// calibration twin of the simulator's encode and decode rates: encode and
// decode throughput in logical MB/s, and the wire compression ratio
// (logical/wire bytes). "ransom" is hm content with every other page
// replaced by ciphertext.
func BenchmarkCodecWorkload(b *testing.B) {
	cases := []struct {
		name        string
		profile     string
		cipherEvery int
	}{
		{"hm", "hm", 0},
		{"src", "src", 0},
		{"usr", "usr", 0},
		{"ransom", "hm", 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			raws := workloadSegments(b, c.profile, c.cipherEvery, 8)
			logical, wire := 0, 0
			blobs := make([][]byte, len(raws))
			for i, raw := range raws {
				blobs[i] = AppendSegmentBlob(nil, raw)
				logical += len(raw)
				wire += len(blobs[i])
			}
			enc := bufpool.Get(BlobOverhead + len(raws[0]))
			dec := bufpool.Get(len(raws[0]))
			defer enc.Release()
			defer dec.Release()

			var encT, decT time.Duration
			b.ReportAllocs()
			b.SetBytes(int64(2 * logical))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for _, raw := range raws {
					enc.B = AppendSegmentBlob(enc.B[:0], raw)
				}
				t1 := time.Now()
				for _, blob := range blobs {
					out, err := AppendDecodeSegmentBlob(dec.B[:0], blob)
					if err != nil {
						b.Fatal(err)
					}
					dec.B = out[:0]
				}
				encT += t1.Sub(t0)
				decT += time.Since(t1)
			}
			mb := float64(logical) * float64(b.N) / 1e6
			b.ReportMetric(mb/encT.Seconds(), "enc-MB/s")
			b.ReportMetric(mb/decT.Seconds(), "dec-MB/s")
			b.ReportMetric(float64(logical)/float64(wire), "ratio")
		})
	}
}
