// Package metrics collects the quantities the paper's evaluation reports:
// total data transferred (C), communication time (T_C), result counts,
// cache hit rates, peak intermediate-result memory (M), and work-stealing
// activity. All counters are atomic; one Metrics instance is shared by all
// simulated machines of a cluster run.
package metrics

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Metrics aggregates counters for one query execution.
type Metrics struct {
	BytesPushed atomic.Uint64 // shuffled intermediate results (pushing mode)
	BytesPulled atomic.Uint64 // adjacency pulled via GetNbrs (pulling mode)
	BytesStolen atomic.Uint64 // batches shipped to another machine by work stealing
	RPCCalls    atomic.Uint64
	PushMsgs    atomic.Uint64

	CommTimeNs atomic.Int64 // wall time blocked on communication, summed over callers
	FetchNs    atomic.Int64 // time in PULL-EXTEND fetch stages (incl. sync)

	Results atomic.Uint64

	// A cache hit is one distinct remote vertex of a batch that was
	// already cached when the batch wanted it, a miss one that was not and
	// was pulled. A vertex a batch wants again (say in its second fetch)
	// is neither. Cncr-LRU, which pulls on demand, counts every read.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64

	// Live intermediate-result tuples across the cluster, and its peak —
	// the paper's memory axis (M). Batches enqueued anywhere count here.
	liveTuples atomic.Int64
	peakTuples atomic.Int64

	// Shared, when non-nil, receives every live-tuple delta too: the
	// serving layer wires each governed run's Metrics to one cross-run
	// Gauge, so the global memory envelope sees the sum of all concurrent
	// runs' live tuples. Set before the run starts, never after.
	Shared *Gauge

	// Adaptive batch sizing (engine Config.AdaptiveBatch): grow/shrink
	// decisions the source-side controller took for this run, and the size
	// it last settled on — how the governor's sizing policy is observed.
	BatchGrows    atomic.Uint64
	BatchShrinks  atomic.Uint64
	BatchRowsLast atomic.Int64

	StealsIntra atomic.Uint64
	StealsInter atomic.Uint64

	// TailRows counts the prefix rows a marked tail of k ≥ 2 counted, and
	// the scanned rows a separator count took: each adds its targets'
	// picks in closed form instead of enumerating them.
	TailRows atomic.Uint64

	// PUSH-JOIN buffers that outgrew their in-memory threshold: sorted runs
	// written to disk and their size. Zero means every join input of the
	// run was sorted and joined in memory.
	JoinSpillRuns  atomic.Uint64
	JoinSpillBytes atomic.Uint64

	// Kernels tallies which intersection kernel the adaptive dispatcher
	// picked (merge / gallop / bitset-probe / bitset-AND, materialising
	// and count-only) — how tests assert that no dispatch path silently
	// rots. Workers accumulate plain per-scratch graph.KernelCounts and
	// flush here at scratch release.
	Kernels Kernels
}

// Kernels is the shared, atomic sink for kernel-dispatch tallies.
type Kernels struct {
	Merge       atomic.Uint64
	Gallop      atomic.Uint64
	BitsetProbe atomic.Uint64
	BitsetAnd   atomic.Uint64

	CountMerge     atomic.Uint64
	CountGallop    atomic.Uint64
	CountProbe     atomic.Uint64
	CountBitsetAnd atomic.Uint64
}

// AddCounts flushes one worker's per-scratch tally into the shared sink.
func (k *Kernels) AddCounts(c graph.KernelCounts) {
	if c.Total() == 0 {
		return
	}
	k.Merge.Add(c.Merge)
	k.Gallop.Add(c.Gallop)
	k.BitsetProbe.Add(c.BitsetProbe)
	k.BitsetAnd.Add(c.BitsetAnd)
	k.CountMerge.Add(c.CountMerge)
	k.CountGallop.Add(c.CountGallop)
	k.CountProbe.Add(c.CountProbe)
	k.CountBitsetAnd.Add(c.CountBitsetAnd)
}

// Snapshot copies the dispatch counters into the plain counts form.
func (k *Kernels) Snapshot() graph.KernelCounts {
	return graph.KernelCounts{
		Merge:          k.Merge.Load(),
		Gallop:         k.Gallop.Load(),
		BitsetProbe:    k.BitsetProbe.Load(),
		BitsetAnd:      k.BitsetAnd.Load(),
		CountMerge:     k.CountMerge.Load(),
		CountGallop:    k.CountGallop.Load(),
		CountProbe:     k.CountProbe.Load(),
		CountBitsetAnd: k.CountBitsetAnd.Load(),
	}
}

// AddLiveTuples records queued intermediate results and updates the peak;
// a wired Shared gauge sees the same delta.
func (m *Metrics) AddLiveTuples(n int64) {
	if m.Shared != nil {
		m.Shared.Add(n)
	}
	cur := m.liveTuples.Add(n)
	for {
		peak := m.peakTuples.Load()
		if cur <= peak || m.peakTuples.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// LiveTuples returns the current number of queued intermediate tuples.
func (m *Metrics) LiveTuples() int64 { return m.liveTuples.Load() }

// PeakTuples returns the high-water mark of queued intermediate tuples.
func (m *Metrics) PeakTuples() int64 { return m.peakTuples.Load() }

// Maintenance aggregates the standing-query maintenance counters of a
// serving System across its lifetime: every Apply that found live
// subscriptions runs one shared delta enumeration per distinct plan
// fingerprint and fans the match deltas out, and these counters are how
// the amortisation is observed — SharedRuns grows with distinct patterns
// while ServedSubscribers grows with population, so the deduped work is
// their difference. All counters are atomic; one Maintenance instance is
// shared by every Apply of a System.
type Maintenance struct {
	Applies           atomic.Uint64 // Apply calls that ran subscription maintenance
	SharedRuns        atomic.Uint64 // shared delta enumerations (one per live fingerprint group)
	ServedSubscribers atomic.Uint64 // subscribers those runs served (cumulative)
	DedupedRuns       atomic.Uint64 // per-subscriber runs avoided: served - shared, per group
	FannedEvents      atomic.Uint64 // events delivered to subscriber channels
	FannedMatches     atomic.Uint64 // match payloads delivered (new+dead, summed over subscribers)
	ShedEvents        atomic.Uint64 // events dropped on a full buffer (shed policy)
	Disconnected      atomic.Uint64 // subscriptions force-closed as slow consumers
}

// MaintenanceSummary is a point-in-time copy of the maintenance counters.
type MaintenanceSummary struct {
	Applies           uint64
	SharedRuns        uint64
	ServedSubscribers uint64
	DedupedRuns       uint64
	FannedEvents      uint64
	FannedMatches     uint64
	ShedEvents        uint64
	Disconnected      uint64
}

// Snapshot copies the maintenance counters.
func (m *Maintenance) Snapshot() MaintenanceSummary {
	return MaintenanceSummary{
		Applies:           m.Applies.Load(),
		SharedRuns:        m.SharedRuns.Load(),
		ServedSubscribers: m.ServedSubscribers.Load(),
		DedupedRuns:       m.DedupedRuns.Load(),
		FannedEvents:      m.FannedEvents.Load(),
		FannedMatches:     m.FannedMatches.Load(),
		ShedEvents:        m.ShedEvents.Load(),
		Disconnected:      m.Disconnected.Load(),
	}
}

// Summary is a point-in-time copy of all counters, for reports and tests.
type Summary struct {
	BytesPushed, BytesPulled uint64
	BytesStolen              uint64 // inter-machine steal shipments
	RPCCalls, PushMsgs       uint64
	CommTime, FetchTime      time.Duration
	Results                  uint64
	CacheHits, CacheMisses   uint64
	PeakTuples               int64
	StealsIntra, StealsInter uint64
	Kernels                  graph.KernelCounts

	// Rows counted by a tail of k ≥ 2 or a separator (Metrics.TailRows).
	TailRows uint64

	// PUSH-JOIN sorted runs spilled to disk, and their bytes.
	JoinSpillRuns, JoinSpillBytes uint64

	// Adaptive batch sizing: decisions taken and the final size (0 when
	// the run used a fixed batch size).
	BatchGrows, BatchShrinks uint64
	BatchRowsLast            int64
}

// Add folds b into a: the report of several runs executed one after the
// other (the per-pinned-edge flows of a delta run). Counters and times add,
// PeakTuples is the highest mark any of the runs reached, BatchRowsLast the
// size the last adaptively-sized run settled on.
func (a Summary) Add(b Summary) Summary {
	a.BytesPushed += b.BytesPushed
	a.BytesPulled += b.BytesPulled
	a.BytesStolen += b.BytesStolen
	a.RPCCalls += b.RPCCalls
	a.PushMsgs += b.PushMsgs
	a.CommTime += b.CommTime
	a.FetchTime += b.FetchTime
	a.Results += b.Results
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.PeakTuples = max(a.PeakTuples, b.PeakTuples)
	a.StealsIntra += b.StealsIntra
	a.StealsInter += b.StealsInter
	a.Kernels.Add(b.Kernels)
	a.TailRows += b.TailRows
	a.JoinSpillRuns += b.JoinSpillRuns
	a.JoinSpillBytes += b.JoinSpillBytes
	a.BatchGrows += b.BatchGrows
	a.BatchShrinks += b.BatchShrinks
	if b.BatchRowsLast != 0 {
		a.BatchRowsLast = b.BatchRowsLast
	}
	return a
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Summary {
	return Summary{
		BytesPushed:    m.BytesPushed.Load(),
		BytesPulled:    m.BytesPulled.Load(),
		BytesStolen:    m.BytesStolen.Load(),
		RPCCalls:       m.RPCCalls.Load(),
		PushMsgs:       m.PushMsgs.Load(),
		CommTime:       time.Duration(m.CommTimeNs.Load()),
		FetchTime:      time.Duration(m.FetchNs.Load()),
		Results:        m.Results.Load(),
		CacheHits:      m.CacheHits.Load(),
		CacheMisses:    m.CacheMisses.Load(),
		PeakTuples:     m.PeakTuples(),
		StealsIntra:    m.StealsIntra.Load(),
		StealsInter:    m.StealsInter.Load(),
		Kernels:        m.Kernels.Snapshot(),
		TailRows:       m.TailRows.Load(),
		BatchGrows:     m.BatchGrows.Load(),
		BatchShrinks:   m.BatchShrinks.Load(),
		BatchRowsLast:  m.BatchRowsLast.Load(),
		JoinSpillRuns:  m.JoinSpillRuns.Load(),
		JoinSpillBytes: m.JoinSpillBytes.Load(),
	}
}
