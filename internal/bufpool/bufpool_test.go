package bufpool

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestGetCapacityAndClassing(t *testing.T) {
	for _, n := range []int{1, 512, 513, 4096, 4097, 1 << 20, (1 << 24) + 1} {
		b := Get(n)
		if len(b.B) != 0 {
			t.Fatalf("Get(%d): len %d, want 0", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Fatalf("Get(%d): cap %d < requested", n, cap(b.B))
		}
		b.Release()
	}
}

func TestReleaseRoundtrip(t *testing.T) {
	b := Get(4096)
	b.B = append(b.B, bytes.Repeat([]byte{0xAB}, 4096)...)
	b.Release()
	// The next same-class Get must come back empty regardless of whether it
	// is the same object.
	b2 := Get(4096)
	if len(b2.B) != 0 {
		t.Fatalf("reused buffer has len %d, want 0", len(b2.B))
	}
	b2.Release()
}

func TestReleaseNilAndOddCap(t *testing.T) {
	var b *Buf
	b.Release() // must not panic
	odd := &Buf{B: make([]byte, 0, 6000)}
	odd.Release() // non-power-of-two capacity: dropped, not pooled
}

func TestDeflateInflateRoundtrip(t *testing.T) {
	payload := bytes.Repeat([]byte("retained page content "), 500)
	d := GetDeflater()
	comp := d.Append(nil, payload)
	d.Release()
	if len(comp) >= len(payload) {
		t.Fatalf("compressible payload did not shrink: %d -> %d", len(payload), len(comp))
	}
	i := GetInflater()
	got, err := i.Append(nil, comp)
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	i.Release()
	if !bytes.Equal(got, payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestInflaterRejectsGarbage(t *testing.T) {
	i := GetInflater()
	defer i.Release()
	if _, err := i.Append(nil, []byte{0xff, 0x00, 0x12, 0x34}); err == nil {
		t.Fatal("garbage stream inflated without error")
	}
}

// TestSteadyStateAllocs is the package's own zero-allocation contract: a
// rented buffer and codec pair, used within capacity, costs nothing per
// operation once warm.
func TestSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	payload := bytes.Repeat([]byte("steady state segment data "), 200)
	buf := Get(64 << 10)
	out := Get(64 << 10)
	defer buf.Release()
	defer out.Release()

	if n := testing.AllocsPerRun(50, func() {
		b := Get(4096)
		b.B = append(b.B, payload[:1024]...)
		b.Release()
	}); n != 0 {
		t.Errorf("Get/Release: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(50, func() {
		d := GetDeflater()
		buf.B = d.Append(buf.B[:0], payload)
		d.Release()
	}); n != 0 {
		t.Errorf("Deflater.Append: %v allocs/op, want 0", n)
	}

	d := GetDeflater()
	comp := d.Append(nil, payload)
	d.Release()
	if n := testing.AllocsPerRun(50, func() {
		i := GetInflater()
		var err error
		out.B, err = i.Append(out.B[:0], comp)
		i.Release()
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Inflater.Append: %v allocs/op, want 0", n)
	}

	// Segment-sized workload content: multi-block streams with dynamic,
	// Huffman-only and stored blocks and matches across block boundaries.
	corpus := workloadCorpus(t)
	for _, name := range []string{"hm/40", "src/40/cipher", "usr/7"} {
		p := corpus[name]
		enc := Get(len(p) + 1024)
		dec := Get(len(p))
		if n := testing.AllocsPerRun(20, func() {
			d := GetDeflater()
			enc.B = d.Append(enc.B[:0], p)
			d.Release()
		}); n != 0 {
			t.Errorf("%s: Deflater.Append: %v allocs/op, want 0", name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			i := GetInflater()
			var err error
			dec.B, err = i.Append(dec.B[:0], enc.B)
			i.Release()
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Inflater.Append: %v allocs/op, want 0", name, n)
		}
		if !bytes.Equal(dec.B, p) {
			t.Fatalf("%s: roundtrip mismatch", name)
		}
		enc.Release()
		dec.Release()
	}
}

// TestConcurrentRental drives the pools from many goroutines so the race
// detector can see any sharing bug in the rental lifecycle.
func TestConcurrentRental(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 2048)
			rng.Read(payload)
			for i := 0; i < 200; i++ {
				b := Get(rng.Intn(16 << 10))
				b.B = append(b.B, payload...)
				d := GetDeflater()
				comp := d.Append(nil, b.B)
				d.Release()
				inf := GetInflater()
				got, err := inf.Append(nil, comp)
				inf.Release()
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("roundtrip mismatch: %v", err)
					return
				}
				b.Release()
			}
		}(int64(g))
	}
	wg.Wait()
}
