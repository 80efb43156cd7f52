// Command e2ebench is the repository's end-to-end benchmark. It drives the
// real system through the public functions of core, remote, detect and
// netsim and times the two paths the RSSD paper's claims rest on: host
// write -> durable on the server, and power cycle -> page-identical image.
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured with production wiring. With --trace 1 half the rounds run
// traced (wrapped pipes and object store, a timed Subscribe hook, spans
// around every call into a layer, and a calibration pass on the run's own
// segments) and the metrics are the per-layer ones; the spans are written
// as Chrome trace-event JSON to .bench_build/spans-<workload>-<seed>.json.
// A failed correctness gate exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "ingest", "workload: ingest, ransom or restore")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run on a 2-core box; sets the work")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rounds := int(math.Round(float64(*seconds) * w.roundsPerSecond))
	if rounds < minRounds {
		rounds = minRounds
	}
	traced := *trace == 1
	if traced && rounds < 2*minRounds {
		rounds = 2 * minRounds // half the rounds run traced
	}
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))

	fmt.Printf("e2ebench %s seed=%d rounds=%d traced=%v  (%s/%s, %d CPUs, GOMAXPROCS=%d)\n",
		w.name, *seed, rounds, traced, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rn := &run{w: w, seed: *seed}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	gateErr := rn.rounds(rounds, tr)
	res := result{Correct: gateErr == nil, Attempted: rn.attempted, Failed: rn.failed}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if gateErr != nil {
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = 1
		}
		fmt.Printf("GATE FAILED: %v\n", gateErr)
	}
	if traced {
		res.Metrics = rn.layerMetrics()
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err == nil {
			if err := tr.writeChromeTrace(spans); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: write spans: %v\n", err)
			} else {
				fmt.Printf("spans: %d written to %s (%d dropped)\n", len(tr.spans), spans, tr.dropped)
			}
		}
	} else {
		res.Metrics = rn.e2eMetrics()
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// --- statistics -------------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// percentile is the nearest-rank percentile of v (sorted in place).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// tailPercentile is the highest of the usual percentiles that leaves at
// least ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 80, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func durations(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
