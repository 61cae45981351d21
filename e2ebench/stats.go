package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count), or 0 for an empty sample.
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

// medianDur is median over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// percentileDur is percentile over durations, in ms.
func percentileDur(ds []time.Duration, p float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return percentile(xs, p)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// timeCalls runs fn until budget has elapsed (at least minCalls times and at
// most maxCalls times) and returns the median duration of one call.
func timeCalls(budget time.Duration, minCalls, maxCalls int, fn func()) time.Duration {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < maxCalls && (len(ds) < minCalls || time.Since(start) < budget) {
		t := time.Now()
		fn()
		ds = append(ds, time.Since(t))
	}
	return time.Duration(medianDur(ds, 1))
}
