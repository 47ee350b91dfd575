package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles the tail rule chooses among, highest
// first.
var tailLevels = []float64{99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, one outlier moves it.
const minBeyond = 10

// rank returns the nearest-rank index of percentile p in n sorted
// samples (n > 0). The epsilon keeps binary rounding of p (99.9 is not
// exact) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// beyond is the number of samples strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - 1 - rank(p, n) }

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))]
}

// tailRule returns the highest percentile in tailLevels that keeps at
// least minBeyond samples beyond it; ok is false when n samples support
// none (the median is then the only percentile worth reporting).
func tailRule(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if n > 0 && beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the median of xs (the mean of the middle two for even
// counts; 0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// keyResult is one answered point: its key and simulated outcome.
type keyResult struct {
	key            string
	cycles, instrs int64
}

// digest is the results digest: SHA-256 over every key's simulated cycles
// and instructions, in key order, so it depends on what was computed and
// not on the order clients happened to finish in.
func digest(results map[string]keyResult) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		r := results[k]
		fmt.Fprintf(h, "%s %d %d\n", k, r.cycles, r.instrs)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
