package main

import (
	"math"
	"sort"
)

// Time and content units of the wire: 20 ms frames of 48 kHz audio.
const (
	sampleRate   = 48000
	frameSamples = 960
	frameNS      = int64(20_000_000)
	frameSec     = 0.020
)

// syncTolSec is the paper's in-sync bound (Fig. 8): |ISD| <= 10 ms.
const syncTolSec = 0.010

// missLimitNS is the lateness past which a due frame counts as missed:
// the low end of Table 1's decode + buffer budget.
const missLimitNS = 60 * int64(1_000_000)

// frameRec is one media frame as the player received it: its sequence
// number, the content identity the server stamped on it and the arrival
// time on the generator's monotonic clock.
type frameRec struct {
	seq uint32
	cs  int64  // first content sample, -1 for an all-gap frame
	co  uint16 // in-frame offset where content begins
	at  int64  // arrival, ns
}

// isdPoint is the true inter-stream delay of one content-bearing
// accessory frame.
type isdPoint struct {
	at  int64   // arrival of the accessory frame, ns
	isd float64 // seconds; positive when the screen lags the accessory
}

// bySeq returns the frames sorted by sequence number with duplicates
// removed (the first arrival of a sequence number wins).
func bySeq(frames []frameRec) []frameRec {
	out := append([]frameRec(nil), frames...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	k := 0
	for i := range out {
		if k > 0 && out[k-1].seq == out[i].seq {
			continue
		}
		out[k] = out[i]
		k++
	}
	return out[:k]
}

// trueISD is the oracle: for every content-bearing accessory frame it
// finds when the same content sample was heard from the screen and
// returns the difference. Under the echo model the accessory plays
// accessory frame k at k·20 ms + ContentOff on the player's clock, and
// the microphone hears screen frame k at (k + delayFrames)·20 ms. Content
// is located inside the covering screen frame (the content-bearing frame
// with the greatest ContentStart not above it); all-gap frames carry no
// content, partial frames start their content at ContentOff, and a lost
// screen frame is bridged from the frame before it. Accessory content the
// screen has not played yet yields no point.
func trueISD(screen, acc []frameRec, delayFrames int) []isdPoint {
	var sc []frameRec
	for _, f := range bySeq(screen) {
		if f.cs >= 0 {
			sc = append(sc, f)
		}
	}
	var pts []isdPoint
	for _, a := range bySeq(acc) {
		if a.cs < 0 {
			continue
		}
		i := sort.Search(len(sc), func(i int) bool { return sc[i].cs > a.cs }) - 1
		if i < 0 {
			continue
		}
		s := sc[i]
		within := float64(s.co) + float64(a.cs-s.cs)
		if i == len(sc)-1 && within >= frameSamples {
			continue // beyond the newest screen frame heard so far
		}
		tS := (float64(s.seq)+float64(delayFrames))*frameSec + within/sampleRate
		tA := float64(a.seq)*frameSec + float64(a.co)/sampleRate
		pts = append(pts, isdPoint{at: a.at, isd: tS - tA})
	}
	return pts
}

// convergeIndex returns the index of the first point after which every
// point stays within tol, or -1 when the last point is out of sync.
func convergeIndex(pts []isdPoint, tol float64) int {
	i := len(pts)
	for i > 0 && math.Abs(pts[i-1].isd) <= tol {
		i--
	}
	if i == len(pts) {
		return -1
	}
	return i
}

// heldSince returns the arrival time from which the final ISD value has
// held (within eps), so a caller can tell whether the server has had
// time to measure it.
func heldSince(pts []isdPoint, eps float64) int64 {
	if len(pts) == 0 {
		return 0
	}
	last := pts[len(pts)-1].isd
	i := len(pts) - 1
	for i > 0 && math.Abs(pts[i-1].isd-last) <= eps {
		i--
	}
	return pts[i].at
}

// lateSample is one frame's lateness and the time it is windowed by.
type lateSample struct {
	due int64   // ns
	ms  float64 // lateness
}

// lateness scores one downlink stream against its cadence. The anchor
// is the earliest (arrival − seq·20 ms) seen on the stream, so a stall
// also charges every frame queued behind it, and a tick the server never
// sent shifts every later frame. Frames are due at anchor + seq·20 ms;
// only frames whose miss limit has passed by cutoff are judged. It
// returns the lateness of each judged frame that arrived in time (ms),
// the number judged and the number missed (never arrived, or arrived
// more than the miss limit late).
func lateness(frames []frameRec, cutoff int64) (late []float64, due, missed int) {
	fs := bySeq(frames)
	if len(fs) == 0 {
		return nil, 0, 0
	}
	anchor := int64(math.MaxInt64)
	for _, f := range fs {
		if a := f.at - int64(f.seq)*frameNS; a < anchor {
			anchor = a
		}
	}
	last := cutoff - missLimitNS - anchor
	if last < 0 {
		return nil, 0, 0
	}
	due = int(last/frameNS) + 1
	for _, f := range fs {
		if int(f.seq) >= due {
			break
		}
		if l := f.at - anchor - int64(f.seq)*frameNS; l <= missLimitNS {
			late = append(late, float64(l)/1e6)
		}
	}
	missed = due - len(late)
	return late, due, missed
}

// jitter returns each frame's lateness against its stream's cadence
// anchored per window: frames are grouped by arrival into windows of
// width ns on the generator clock, and a window's anchor is the earliest
// (arrival − seq·20 ms) among the stream's frames in it. A stall still
// charges the frames queued behind it inside its window, while a
// permanent slip of the schedule (a tick never sent) is not charged to
// every later window: it is returned as slip, the anchor's growth from
// the first window to the last in whole frames. Samples carry their
// arrival in due, for windowedPercentile.
func jitter(frames []frameRec, cutoff, width int64) (out []lateSample, slip int) {
	anchors := make(map[int64]int64)
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, f := range frames {
		if f.at > cutoff {
			continue
		}
		w, a := f.at/width, f.at-int64(f.seq)*frameNS
		if cur, ok := anchors[w]; !ok || a < cur {
			anchors[w] = a
		}
		first, last = min(first, w), max(last, w)
	}
	for _, f := range bySeq(frames) {
		if f.at > cutoff {
			continue
		}
		l := f.at - anchors[f.at/width] - int64(f.seq)*frameNS
		out = append(out, lateSample{due: f.at, ms: float64(l) / 1e6})
	}
	if len(out) > 0 {
		slip = int(math.Round(float64(anchors[last]-anchors[first]) / float64(frameNS)))
	}
	return out, slip
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile of xs by nearest rank and whether it
// may be reported: at least minBeyond samples must lie strictly beyond
// it, so a tail figure always rests on ten real observations.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], true
}

// windowedPercentile groups samples into windows of width ns by their
// due field (absolute: due/width) and returns the median over windows of
// each window's
// q-quantile, so one stalled stretch of a run moves the figure by one
// window's worth instead of dominating it. Windows whose quantile lacks
// minBeyond samples beyond it are skipped; ok is false when none
// qualifies. It also returns the number of windows used.
func windowedPercentile(samples []lateSample, width int64, q float64) (v float64, windows int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	buckets := map[int64][]float64{}
	for _, s := range samples {
		buckets[s.due/width] = append(buckets[s.due/width], s.ms)
	}
	var per []float64
	for _, xs := range buckets {
		if p, ok := percentile(xs, q); ok {
			per = append(per, p)
		}
	}
	if len(per) == 0 {
		return 0, 0, false
	}
	return median(per), len(per), true
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mix is SplitMix64's finalizer: a stateless hash that turns (seed,
// session, seq) into independent uniform bits.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit returns a uniform number in [0,1) that depends only on its
// arguments.
func unit(seed int64, id, seq uint32, salt uint64) float64 {
	h := mix(mix(mix(uint64(seed)^salt)^uint64(id)) ^ uint64(seq))
	return float64(h>>11) / (1 << 53)
}

// impairment is a seeded uplink fault model: each chat datagram is
// independently dropped, swapped with the next one of its session, or
// sent twice.
type impairment struct {
	loss, swap, dup float64
}

// verdict is what the impairment does to one chat datagram.
type verdict uint8

const (
	pass verdict = iota
	drop
	swapNext
	duplicate
)

// decide returns the impairment verdict for chat seq of session id. It
// is a pure function of (seed, id, seq).
func (im impairment) decide(seed int64, id, seq uint32) verdict {
	u := unit(seed, id, seq, 0x696d7061697221)
	switch {
	case u < im.loss:
		return drop
	case u < im.loss+im.swap:
		return swapNext
	case u < im.loss+im.swap+im.dup:
		return duplicate
	}
	return pass
}

// sessionBase returns the first session id a seed uses; ids set each
// session's air delay (4 + id%9 frames) and clock offset, so the seed
// varies the inputs the server sees.
func sessionBase(seed int64) uint32 {
	return 1 + uint32(mix(uint64(seed))%40000)*16
}

// lifeNS is how long a churned session streams before its Bye: 5.0 to
// 6.0 s, long enough for its first correction to land and be measured.
// The sub-frame part walks the golden-ratio sequence over consecutive
// ids, so successive hellos sample the server's 20 ms tick phase evenly
// instead of all landing at one phase. A pure function of (seed, id).
func lifeNS(seed int64, id uint32) int64 {
	frames := 250 + int64(unit(seed, id, 0, 0x6c696665)*50)
	phase := math.Mod(float64(id)*0.6180339887498949, 1)
	return frames*frameNS + int64(phase*float64(frameNS))
}

// airDelayFrames is the echo model's screen-to-microphone delay.
func airDelayFrames(id uint32) int { return 4 + int(id%9) }
