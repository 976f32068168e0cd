package main

import (
	"math"
	"slices"
	"time"
)

// samples keeps every latency of one operation class exactly, in
// nanoseconds. Storage grows in fixed chunks, so recording never copies
// earlier samples and the pointer-free chunks are never scanned by the
// garbage collector.
type samples struct {
	chunks [][]uint32
	n      int
}

const sampleChunk = 1 << 16

// failedSample stands for a failed transaction: it lies beyond every
// latency limit, so a failure counts against each percentile.
const failedSample = math.MaxUint32

func (s *samples) add(d time.Duration) {
	v := uint64(max(d, 0))
	if v >= failedSample {
		v = failedSample - 1
	}
	s.push(uint32(v))
}

func (s *samples) addFailed() { s.push(failedSample) }

func (s *samples) push(v uint32) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == sampleChunk {
		s.chunks = append(s.chunks, make([]uint32, 0, sampleChunk))
		last++
	}
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
}

// merge appends o's samples to s.
func (s *samples) merge(o *samples) {
	for _, c := range o.chunks {
		for _, v := range c {
			s.push(v)
		}
	}
}

// dist is a sorted set of samples.
type dist []uint32

func (s *samples) dist() dist {
	d := make(dist, 0, s.n)
	for _, c := range s.chunks {
		d = append(d, c...)
	}
	slices.Sort(d)
	return d
}

// quantileUs is the nearest-rank q-quantile in microseconds, and
// whether at least ten samples lie beyond it (so the percentile means
// something). A failed sample reads as +Inf.
func (d dist) quantileUs(q float64) (float64, bool) {
	if len(d) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(len(d)))) - 1
	rank = min(max(rank, 0), len(d)-1)
	v := d[rank]
	if v == failedSample {
		return math.Inf(1), len(d)-1-rank >= 10
	}
	return float64(v) / 1e3, len(d)-1-rank >= 10
}
