package entropy

import (
	"crypto/rand"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestShannonZeroes(t *testing.T) {
	if got := Shannon(make([]byte, 4096)); got != 0 {
		t.Fatalf("entropy of zeroes = %v, want 0", got)
	}
}

func TestShannonEmpty(t *testing.T) {
	if got := Shannon(nil); got != 0 {
		t.Fatalf("entropy of nil = %v", got)
	}
}

func TestShannonUniform(t *testing.T) {
	data := make([]byte, 256*16)
	for i := range data {
		data[i] = byte(i % 256)
	}
	if got := Shannon(data); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("entropy of uniform bytes = %v, want 8", got)
	}
}

func TestShannonRandomIsHigh(t *testing.T) {
	data := make([]byte, 4096)
	rand.Read(data)
	got := Shannon(data)
	if got < 7.9 {
		t.Fatalf("entropy of random 4KiB = %v, want > 7.9", got)
	}
	if !IsHigh(got) {
		t.Fatal("random data not classified high entropy")
	}
}

func TestTextLikeDataIsLow(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog. ")
	data := make([]byte, 0, 4096)
	for len(data) < 4096 {
		data = append(data, text...)
	}
	got := Shannon(data[:4096])
	if got > 5 {
		t.Fatalf("entropy of text = %v, want < 5", got)
	}
	if IsHigh(got) {
		t.Fatal("text classified as high entropy")
	}
}

func TestSampledTracksFull(t *testing.T) {
	data := make([]byte, 4096)
	rand.Read(data)
	full := Shannon(data)
	sampled := Sampled(data, 512)
	if math.Abs(full-sampled) > 0.5 {
		t.Fatalf("sampled %v too far from full %v", sampled, full)
	}
}

func TestSampledSmallInput(t *testing.T) {
	data := []byte{1, 2, 3}
	if Sampled(data, 512) != Shannon(data) {
		t.Fatal("small input should use full entropy")
	}
}

// Property: entropy is always within [0, 8].
func TestEntropyBoundsProperty(t *testing.T) {
	f := func(data []byte) bool {
		e := Shannon(data)
		return e >= 0 && e <= 8+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: entropy is permutation-invariant (depends only on histogram).
func TestEntropyPermutationProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		rev := make([]byte, len(data))
		for i, b := range data {
			rev[len(data)-1-i] = b
		}
		return math.Abs(Shannon(data)-Shannon(rev)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sampledReference is Sampled as first written: gather the strided sample
// into a slice, then evaluate p·log2(p) per symbol.
func sampledReference(data []byte, max int) float64 {
	sample := data
	if max > 0 && len(data) > max {
		stride := len(data) / max
		sample = make([]byte, 0, max)
		for i := 0; i < len(data) && len(sample) < max; i += stride {
			sample = append(sample, data[i])
		}
	}
	if len(sample) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range sample {
		counts[b]++
	}
	total := float64(len(sample))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		h -= p * math.Log2(p)
	}
	return h
}

// TestSampledBitIdentical pins the table-driven Sampled to the original
// formula bit for bit, over page shapes from constant to ciphertext: the
// estimate is stamped into every log entry, so it must not move.
func TestSampledBitIdentical(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	page := make([]byte, 4096)
	for trial := 0; trial < 20000; trial++ {
		alphabet := 1 + rng.Intn(256)
		randomPrefix := rng.Intn(len(page) + 1)
		for i := range page {
			if i < randomPrefix {
				page[i] = byte(rng.Intn(alphabet))
			} else {
				page[i] = byte('a' + i%23)
			}
		}
		size := len(page)
		if trial%4 == 0 {
			size = 1 + rng.Intn(len(page))
		}
		for _, max := range []int{512, 256, 0} {
			got, want := Sampled(page[:size], max), sampledReference(page[:size], max)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d size %d max %d: Sampled %v, reference %v", trial, size, max, got, want)
			}
		}
	}
}

func TestSampledAllocs(t *testing.T) {
	page := make([]byte, 4096)
	rand.Read(page)
	if n := testing.AllocsPerRun(100, func() { Sampled(page, 512) }); n != 0 {
		t.Fatalf("Sampled: %v allocs/op, want 0", n)
	}
}

func BenchmarkSampled(b *testing.B) {
	page := make([]byte, 4096)
	rand.Read(page)
	b.ReportAllocs()
	for b.Loop() {
		Sampled(page, 512)
	}
}
