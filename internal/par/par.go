// Package par is the shared data-parallel engine under the render and
// encode kernels: the renderer's colormap fill and marching-squares
// pass (internal/viz) and the checkpoint encode/CRC
// (internal/checkpoint). The solver stencils do not use it: their
// sweeps are cheaper serial than banded. It decomposes an index range
// into contiguous bands — row bands for raster fills, cell tiles for
// encoders — and executes them on one process-wide pool of persistent
// workers, the way in-situ frameworks get intra-timestep throughput
// from domain decomposition.
//
// The engine makes three promises the kernels build on:
//
//   - Determinism: band boundaries are a pure function of (workers, n,
//     grain); bands write disjoint output regions, and Reduce merges
//     per-band partial results in ascending band order on the calling
//     goroutine — so kernel output bytes are identical at any worker
//     count, including 1.
//   - No spawning on the hot path: workers are spawned once (lazily,
//     growing with GOMAXPROCS) and park on a channel between calls; a
//     parallel call costs channel sends, never goroutine creation, and
//     job descriptors are recycled through a sync.Pool so steady-state
//     calls do not allocate.
//   - No deadlock under contention: helpers are recruited with
//     non-blocking sends, and the caller always executes bands itself.
//     If every worker is busy serving other pipelines, the call simply
//     degrades toward serial — it never waits for a free worker.
//
// ForLimit and Reduce are safe for concurrent use from any number of
// goroutines; concurrent pipelines share the worker pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one parallel call: an index range split into count bands of
// size band, executed by the caller plus any recruited helpers, each
// pulling the next unclaimed band from the atomic cursor.
type job struct {
	fn    func(lo, hi int)       // set by ForLimit
	mapFn func(band, lo, hi int) // set by Reduce (exactly one of the two)
	n     int
	band  int
	count int32
	next  atomic.Int32
	// work tracks unfinished bands (the caller waits on it); holders
	// tracks helpers that still reference the descriptor, so recycling
	// never races with a helper draining the cursor.
	work    sync.WaitGroup
	holders sync.WaitGroup
}

// run drains the band cursor, executing each claimed band.
func (j *job) run() {
	for {
		b := j.next.Add(1) - 1
		if b >= j.count {
			return
		}
		lo := int(b) * j.band
		hi := lo + j.band
		if hi > j.n {
			hi = j.n
		}
		if j.mapFn != nil {
			j.mapFn(int(b), lo, hi)
		} else {
			j.fn(lo, hi)
		}
		j.work.Done()
	}
}

var (
	jobPool sync.Pool // recycled *job descriptors

	// jobs is the shared parking channel. Workers hold only the channel,
	// never a job beyond the call they are helping with.
	jobs = make(chan *job)

	// spawned is how many persistent workers exist; the pool grows
	// toward GOMAXPROCS-1 (the caller is the remaining lane) and never
	// shrinks — surplus parked workers cost nothing, and the per-call
	// worker limit is what bounds actual parallelism.
	spawned atomic.Int32
	spawnMu sync.Mutex
)

// ensureWorkers grows the parked-worker set to want (at most).
func ensureWorkers(want int32) {
	if spawned.Load() >= want {
		return
	}
	spawnMu.Lock()
	defer spawnMu.Unlock()
	for spawned.Load() < want {
		go func() {
			for j := range jobs {
				j.run()
				j.holders.Done()
			}
		}()
		spawned.Add(1)
	}
}

// Bands returns the number of bands ForLimit(workers, n, grain, ...)
// decomposes [0, n) into — callers sizing per-band scratch (Reduce
// merges) use it. Boundaries depend only on (workers, n, grain).
func Bands(workers, n, grain int) int {
	if n <= 0 {
		return 0
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if grain < 1 {
		grain = 1
	}
	if byGrain := n / grain; w > byGrain {
		w = byGrain
	}
	if w < 1 {
		w = 1
	}
	// Recompute the count from the band size so the last band is never
	// empty: with bs = ceil(n/w), count = ceil(n/bs) ≤ w bands of size
	// ceil(n/count) ≤ bs always end strictly inside [0, n).
	bs := bandSize(n, w)
	return (n + bs - 1) / bs
}

// bandSize returns the per-band length for count bands over n.
func bandSize(n, count int) int { return (n + count - 1) / count }

// ForLimit splits [0, n) into contiguous bands of at least grain
// indices and calls fn(lo, hi) once per band, using up to workers
// goroutines (the caller included; workers <= 0 selects GOMAXPROCS).
// It returns when every band has completed. fn must treat [lo, hi) as
// its exclusive output region. With one band the call runs inline with
// no synchronization, so workers == 1 is exactly the serial kernel.
func ForLimit(workers, n, grain int, fn func(lo, hi int)) {
	count := Bands(workers, n, grain)
	if count <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	j := newJob(n, count)
	j.fn = fn
	publish(j, count-1)
	j.run()
	j.work.Wait()
	recycle(j)
}

// newJob readies a recycled (or fresh) descriptor for count bands; the
// caller sets exactly one of fn / mapFn before publishing.
func newJob(n, count int) *job {
	j, _ := jobPool.Get().(*job)
	if j == nil {
		j = &job{}
	}
	j.n = n
	j.band = bandSize(n, count)
	j.count = int32(count)
	j.next.Store(0)
	j.work.Add(count)
	return j
}

// publish recruits up to helpers parked workers with non-blocking
// sends; each successful send registers the worker as a holder.
func publish(j *job, helpers int) {
	ensureWorkers(int32(runtime.GOMAXPROCS(0) - 1))
	for k := 0; k < helpers; k++ {
		j.holders.Add(1)
		select {
		case jobs <- j:
		default:
			// No worker parked right now: run the band ourselves later
			// rather than wait — progress never depends on a free worker.
			j.holders.Done()
			return
		}
	}
}

// recycle returns a descriptor to the pool once no helper references
// it. Helpers release their hold as soon as the band cursor is
// exhausted, so this wait is at most one band behind work completion.
func recycle(j *job) {
	j.holders.Wait()
	j.fn = nil
	j.mapFn = nil
	jobPool.Put(j)
}

// Reduce is the deterministic map/merge primitive: it decomposes
// [0, n) exactly like ForLimit, calls mapFn(band, lo, hi) for every
// band on the pool, and — after all bands complete — calls merge(band)
// for each band in ascending band order on the calling goroutine.
// Kernels with order-sensitive output (marching-squares segment lists,
// chunked CRCs) write per-band partials in mapFn and concatenate or
// combine them in merge; the result is byte-identical to a serial
// left-to-right pass at any worker count.
func Reduce(workers, n, grain int, mapFn func(band, lo, hi int), merge func(band int)) {
	count := Bands(workers, n, grain)
	if count == 0 {
		return
	}
	if count == 1 {
		mapFn(0, 0, n)
		merge(0)
		return
	}
	j := newJob(n, count)
	j.mapFn = mapFn
	publish(j, count-1)
	j.run()
	j.work.Wait()
	recycle(j)
	for b := 0; b < count; b++ {
		merge(b)
	}
}
