package main

// Machine-speed reference.
//
// The sandboxes this benchmark runs in share their host: the same binary on
// the same inputs runs 20-30% slower or faster from one minute to the next,
// and up to 2x within seconds (cache, memory-bandwidth and core contention
// from neighbours), every workload moving together. No statistic taken
// inside a 15-second run can remove that; a reference measured next to the
// work can. Each run therefore times a fixed reference kernel before and
// after every timed unit (a query of an analytic pass, a round of requests
// or Applies, a set-up) and reports its time-valued end-to-end metrics in
// reference-machine time:
//
//	reported = measured x (referenceNominalMs / median reading around the unit)
//
// Every normalised metric keeps its raw measurement next to it, and the
// run's overall factor ("machine speed") is printed and stored with every
// result. The kernel is deliberately the benchmark's own code — merge
// intersections of sorted uint32 lists, the memory-access pattern the
// engine's hot loop has — and must never call into the repository: a
// reference that got faster with the program would hide the very change the
// benchmark exists to show. On the sandbox this was built in, dividing by it
// cut the spread of a 2-worker counting query over 12-second blocks from
// 10% to 4% (README, "Noise protocol"). It does not track fsync latency,
// which drifts on its own.

import (
	"math/rand"
	"slices"
	"time"
)

// referenceNominalMs is the reference kernel's time on the machine the
// first baseline was recorded on, when quiet. It only fixes the unit:
// changing it rescales every normalised metric by the same factor.
const referenceNominalMs = 6.0

type reference struct {
	lists    [][]uint32
	pairs    [][2]int32
	readings []float64 // ms, every reading of the run
	last     []float64 // the latest burst
}

// newReference builds the kernel's data: 4096 sorted lists with skewed
// lengths (about 1.4 MB, LJ's CSR size) and 20000 list pairs to intersect.
// The generator seed is fixed: the reference is the same in every run.
func newReference() *reference {
	rng := rand.New(rand.NewSource(20210620))
	ref := &reference{lists: make([][]uint32, 4096), pairs: make([][2]int32, 20000)}
	for i := range ref.lists {
		l := make([]uint32, 8+int(2000/(1+rng.Float64()*200)))
		var x uint32
		for j := range l {
			x += uint32(1 + rng.Intn(40))
			l[j] = x
		}
		ref.lists[i] = l
	}
	for i := range ref.pairs {
		ref.pairs[i] = [2]int32{int32(rng.Intn(len(ref.lists))), int32(rng.Intn(len(ref.lists)))}
	}
	return ref
}

// measure runs the kernel once on the calling goroutine (about 5 ms) and
// records its time.
func (ref *reference) measure() {
	t0 := time.Now()
	n := 0
	for _, p := range ref.pairs {
		a, b := ref.lists[p[0]], ref.lists[p[1]]
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
	}
	sink += n
	ref.readings = append(ref.readings, float64(time.Since(t0).Nanoseconds())/1e6)
}

// burstLen is the number of readings on each side of a timed unit.
const burstLen = 3

// lap takes a burst of readings and returns the machine's speed, relative
// to the nominal machine (above 1 = faster), over the interval since the
// previous lap: nominal time over the median of the readings on both sides
// of the interval. The first lap of a sequence only opens it.
func (ref *reference) lap() float64 {
	around := ref.last
	n := len(ref.readings)
	for i := 0; i < burstLen; i++ {
		ref.measure()
	}
	ref.last = ref.readings[n:]
	return referenceNominalMs / median(slices.Concat(around, ref.last))
}

// speed is the machine's speed over the whole run.
func (ref *reference) speed() float64 {
	if len(ref.readings) == 0 {
		return 1
	}
	return referenceNominalMs / median(ref.readings)
}
