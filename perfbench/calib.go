package main

import (
	"math/bits"
	"sort"
	"time"
)

// The host's speed drifts: on the shared two-core virtual machine the
// bounds were set on, the same solves ran up to a third slower or faster
// within minutes, with no steal time reported, and process CPU time grew
// with the wall time. So the benchmark times a fixed loop, calibrate,
// whenever no request is in flight, and scales every end-to-end time by
// calibrationRef over the run's median calibration time: the figure is
// the time the request would have taken with the host at its reference
// speed. A change to the program moves the figures as it moves the raw
// times, since the loop runs none of the program's code; the raw figures
// and the factor are printed to stderr.

// calibrationRef is calibrate's median time on the reference host.
const calibrationRef = 1500 * time.Microsecond

// calibrationWords is the loop's working set: 64 KiB, like the bitsets
// and adjacency rows the solvers scan.
const calibrationWords = 1 << 13

var (
	calibrationBuf  = make([]uint64, calibrationWords)
	calibrationSink uint64
)

// calibrate times one pass of fixed work: xorshift draws, scattered
// read-modify-writes and popcounts over calibrationBuf.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for rep := 0; rep < 40; rep++ {
		for i := range calibrationBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (calibrationWords - 1)
			calibrationBuf[j] ^= x
			acc += uint64(bits.OnesCount64(calibrationBuf[i] & calibrationBuf[j]))
		}
	}
	calibrationSink += acc
	return time.Since(start)
}

// hostFactor is calibrationRef over the median of a pass's calibration
// times: above 1 when the host ran faster than its reference speed.
func hostFactor(cal []time.Duration) float64 {
	if len(cal) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), cal...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + m) / 2
	}
	return float64(calibrationRef) / float64(m)
}
