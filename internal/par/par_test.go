package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversRangeOnce checks every index in [0, n) is visited
// exactly once, for ranges and grains that do and don't divide evenly,
// at worker limits below, at, and above GOMAXPROCS.
func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 126, 127, 128, 1000} {
		for _, grain := range []int{1, 2, 16, 1000} {
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				visits := make([]int32, n)
				ForLimit(workers, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("band [%d,%d) outside [0,%d)", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d grain=%d workers=%d: index %d visited %d times", n, grain, workers, i, v)
					}
				}
			}
		}
	}
}

// TestBandsRespectsGrain checks no decomposition produces bands
// smaller than the grain (except the sole band of a short range).
func TestBandsRespectsGrain(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 511} {
		for _, grain := range []int{1, 8, 32} {
			for _, workers := range []int{1, 2, 7, 16} {
				count := Bands(workers, n, grain)
				if count < 1 {
					t.Fatalf("Bands(%d,%d,%d) = %d", workers, n, grain, count)
				}
				if count > 1 && bandSize(n, count) < grain {
					t.Errorf("Bands(%d,%d,%d) = %d gives band %d < grain %d",
						workers, n, grain, count, bandSize(n, count), grain)
				}
				if count > workers {
					t.Errorf("Bands(%d,%d,%d) = %d exceeds worker limit", workers, n, grain, count)
				}
			}
		}
	}
	if Bands(4, 0, 1) != 0 {
		t.Error("Bands of an empty range != 0")
	}
}

// TestBandsDeterministic pins the decomposition to its inputs alone:
// equal (workers, n, grain) must give equal boundaries every call —
// the foundation of the byte-identical-output contract.
func TestBandsDeterministic(t *testing.T) {
	boundaries := func() [][2]int {
		var out [][2]int
		var mu sync.Mutex
		ForLimit(8, 1000, 4, func(lo, hi int) {
			mu.Lock()
			out = append(out, [2]int{lo, hi})
			mu.Unlock()
		})
		return out
	}
	a, b := boundaries(), boundaries()
	if len(a) != len(b) {
		t.Fatalf("band count varies: %d vs %d", len(a), len(b))
	}
	seen := map[[2]int]bool{}
	for _, bd := range a {
		seen[bd] = true
	}
	for _, bd := range b {
		if !seen[bd] {
			t.Fatalf("band %v not produced by the first call", bd)
		}
	}
}

// TestReduceMergesInOrder checks merge runs per band, in ascending
// band order, on the calling goroutine, after that band's map.
func TestReduceMergesInOrder(t *testing.T) {
	caller := make(chan int, 64)
	const n, grain, workers = 97, 4, 8
	count := Bands(workers, n, grain)
	mapped := make([]int, count)
	Reduce(workers, n, grain,
		func(band, lo, hi int) { mapped[band] = hi - lo },
		func(band int) {
			if mapped[band] == 0 {
				t.Errorf("merge(%d) ran before its map", band)
			}
			caller <- band
		})
	close(caller)
	want, total := 0, 0
	for band := range caller {
		if band != want {
			t.Fatalf("merge order: got band %d, want %d", band, want)
		}
		total += mapped[band]
		want++
	}
	if want != count || total != n {
		t.Fatalf("merged %d bands covering %d indices, want %d bands covering %d", want, total, count, n)
	}
}

// TestReduceSerialLimit checks workers=1 degrades to the exact serial
// map-then-merge pass.
func TestReduceSerialLimit(t *testing.T) {
	var trace []string
	Reduce(1, 10, 1,
		func(band, lo, hi int) {
			if band != 0 || lo != 0 || hi != 10 {
				t.Errorf("serial map got band=%d [%d,%d)", band, lo, hi)
			}
			trace = append(trace, "map")
		},
		func(band int) { trace = append(trace, "merge") })
	if len(trace) != 2 || trace[0] != "map" || trace[1] != "merge" {
		t.Fatalf("serial Reduce trace %v", trace)
	}
}

// TestConcurrentForFromManyPipelines exercises the shared pool the way
// the experiment suite does: many goroutines (several per core) each
// running many parallel sweeps over private state, under -race in
// `make check`. Each pipeline's output must be exactly its serial
// result despite all of them recruiting from one worker pool.
func TestConcurrentForFromManyPipelines(t *testing.T) {
	const pipelines = 8
	const sweeps = 200
	const n = 257
	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			data := make([]int, n)
			for s := 0; s < sweeps; s++ {
				ForLimit(4, n, 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						data[i] += p + 1
					}
				})
			}
			for i, v := range data {
				if v != sweeps*(p+1) {
					t.Errorf("pipeline %d: cell %d = %d, want %d", p, i, v, sweeps*(p+1))
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestNestedForDoesNotDeadlock checks a kernel running on the pool may
// itself issue parallel calls: recruitment is non-blocking, so nesting
// degrades to inline execution instead of waiting for free workers.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	ForLimit(8, 64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForLimit(8, 16, 1, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 64*16 {
		t.Fatalf("nested sweeps covered %d indices, want %d", got, 64*16)
	}
}

// TestForSteadyStateAllocs pins the descriptor recycling: once the
// job pool is warm, a parallel call with a cached kernel closure must
// not allocate. This is the engine-level half of the render/step/encode
// 0 allocs/op contract.
func TestForSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so steady-state allocation counts don't hold")
	}
	data := make([]float64, 512)
	kernel := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < 4; i++ { // warm the job pool and spawn the workers
		ForLimit(workers, len(data), 8, kernel)
	}
	avg := testing.AllocsPerRun(100, func() {
		ForLimit(workers, len(data), 8, kernel)
	})
	if avg > 0 {
		t.Errorf("steady-state ForLimit allocates %.1f objects/call, want 0", avg)
	}
}

// BenchmarkFor measures one 126-row band sweep over 128-wide rows at
// the current GOMAXPROCS; run with -cpu 1,2,4 to see scaling.
func BenchmarkFor(b *testing.B) {
	data := make([]float64, 126*128)
	kernel := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := data[r*128 : (r+1)*128]
			for i := range row {
				row[i] += 1.5
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForLimit(0, 126, 8, kernel)
	}
}
