// Package entropy estimates the Shannon entropy of page contents.
//
// RSSD's firmware stamps an entropy estimate into every operation-log
// entry as it logs a host write. Encrypted data is indistinguishable from
// random (entropy close to 8 bits/byte) while typical user data sits far
// lower, so the remote detection pipeline (internal/detect) uses these
// estimates to spot encryption ransomware — including the timing attack,
// whose writes are slow but still high-entropy.
package entropy

import "math"

// Shannon returns the empirical Shannon entropy of data in bits per byte,
// in [0, 8]. An empty slice has zero entropy.
func Shannon(data []byte) float64 {
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	return fromCounts(&counts, len(data))
}

// Sampled returns the Shannon entropy of up to max bytes of data, sampled
// with a fixed stride across the whole buffer. The device-side logging path
// uses it to bound per-write CPU cost, as firmware would; the sample is
// counted in place, so the call allocates nothing.
func Sampled(data []byte, max int) float64 {
	if max <= 0 || len(data) <= max {
		return Shannon(data)
	}
	stride := len(data) / max
	var counts [256]int
	n := 0
	for i := 0; i < len(data) && n < max; i += stride {
		counts[data[i]]++
		n++
	}
	return fromCounts(&counts, n)
}

// tableN is the sample size the logging path uses (Sampled(page, 512));
// plogp[c] holds its term p·log2(p) for p = c/tableN.
const tableN = 512

var plogp [tableN + 1]float64

func init() {
	for c := 1; c <= tableN; c++ {
		plogp[c] = term(c, tableN)
	}
}

// term is one symbol's p·log2(p). The conversion rounds the product, so no
// platform fuses it into the caller's subtraction: a table entry and a
// fresh evaluation are the same float64.
func term(c, n int) float64 {
	p := float64(c) / float64(n)
	return float64(p * math.Log2(p))
}

// fromCounts is the entropy of a histogram over n bytes, summed in byte
// order; for n == tableN each term is a table lookup with the same value.
func fromCounts(counts *[256]int, n int) float64 {
	if n == 0 {
		return 0
	}
	h := 0.0
	if n == tableN {
		for _, c := range counts {
			if c != 0 {
				h -= plogp[c]
			}
		}
		return h
	}
	for _, c := range counts {
		if c != 0 {
			h -= term(c, n)
		}
	}
	return h
}

// HighEntropy reports whether e (bits/byte) is in the range characteristic
// of encrypted or well-compressed content. 7.2 splits cleanly between
// ciphertext (> 7.9 for 4 KiB pages) and typical user data in our traces.
const HighEntropyThreshold = 7.2

// IsHigh reports whether an entropy estimate indicates ciphertext-like
// content.
func IsHigh(e float64) bool { return e >= HighEntropyThreshold }
