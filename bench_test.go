package greenviz

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/viz"
)

// benchSuite returns a fresh suite per iteration: each benchmark
// measures the full regeneration of its artifact, including every
// pipeline/fio run it needs. RealSubsteps is reduced so host CPU time
// reflects the simulation harness, not redundant solver sub-stepping;
// virtual-time results are identical either way.
func benchSuite(seed uint64) *Suite {
	cfg := DefaultConfig()
	cfg.RealSubsteps = 4
	return NewSuite(seed, &cfg)
}

// benchReport runs one experiment per iteration and fails the
// benchmark if the artifact comes back empty.
func benchReport(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment(benchSuite(uint64(i)+1), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Body) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

// BenchmarkTable1 regenerates the hardware-specification table.
func BenchmarkTable1(b *testing.B) { benchReport(b, "table1") }

// BenchmarkFig4 regenerates the stage time-share breakdown.
func BenchmarkFig4(b *testing.B) { benchReport(b, "fig4") }

// BenchmarkFig5 regenerates the six power profiles.
func BenchmarkFig5(b *testing.B) { benchReport(b, "fig5") }

// BenchmarkFig6 regenerates the nnread/nnwrite stage profiles.
func BenchmarkFig6(b *testing.B) { benchReport(b, "fig6") }

// BenchmarkFig7 regenerates the execution-time comparison and reports
// the case-study-1 in-situ time reduction as a custom metric.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(uint64(i) + 1)
		if _, err := RunExperiment(s, "fig7"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the average-power comparison.
func BenchmarkFig8(b *testing.B) { benchReport(b, "fig8") }

// BenchmarkFig9 regenerates the peak-power comparison.
func BenchmarkFig9(b *testing.B) { benchReport(b, "fig9") }

// BenchmarkFig10 regenerates the energy comparison and reports the
// paper's headline number (case-study-1 energy savings) as a metric.
func BenchmarkFig10(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		n1 := NewNode(SandyBridge(), uint64(i)*2+1)
		n2 := NewNode(SandyBridge(), uint64(i)*2+2)
		cfg := DefaultConfig()
		cfg.RealSubsteps = 4
		cs := CaseStudies()[0]
		c := Compare(Run(n1, PostProcessing, cs, cfg), Run(n2, InSitu, cs, cfg))
		savings = c.EnergySavingsPct()
	}
	b.ReportMetric(savings, "savings_%")
}

// BenchmarkFig11 regenerates the energy-efficiency comparison.
func BenchmarkFig11(b *testing.B) { benchReport(b, "fig11") }

// BenchmarkTable2 regenerates the nnread/nnwrite power properties.
func BenchmarkTable2(b *testing.B) { benchReport(b, "table2") }

// BenchmarkBreakdown regenerates the §V-C savings decomposition and
// reports the static share as a metric.
func BenchmarkBreakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		n1 := NewNode(SandyBridge(), uint64(i)*2+1)
		n2 := NewNode(SandyBridge(), uint64(i)*2+2)
		cfg := DefaultConfig()
		cfg.RealSubsteps = 4
		cs := CaseStudies()[0]
		c := Compare(Run(n1, PostProcessing, cs, cfg), Run(n2, InSitu, cs, cfg))
		share = c.Breakdown(10.15, 104.5).StaticSharePct()
	}
	b.ReportMetric(share, "static_share_%")
}

// BenchmarkTable3 regenerates the fio table at the paper's full 4 GiB
// (dominated by the 2000+ virtual-second random-read run).
func BenchmarkTable3(b *testing.B) { benchReport(b, "table3") }

// BenchmarkHypothetical regenerates the §V-D reorganization argument.
func BenchmarkHypothetical(b *testing.B) { benchReport(b, "hypothetical") }

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) { benchReport(b, "ablations") }

// BenchmarkInTransit regenerates the multi-node in-transit study.
func BenchmarkInTransit(b *testing.B) { benchReport(b, "intransit") }

// BenchmarkHybrid regenerates the in-situ + in-transit offload study.
func BenchmarkHybrid(b *testing.B) { benchReport(b, "hybrid") }

// BenchmarkDevices regenerates the HDD/RAID/NVRAM/SSD sweep.
func BenchmarkDevices(b *testing.B) { benchReport(b, "devices") }

// BenchmarkOptimized regenerates the alternative-optimizations study.
func BenchmarkOptimized(b *testing.B) { benchReport(b, "optimized") }

// BenchmarkSampling regenerates the energy-vs-quality sampling sweep.
func BenchmarkSampling(b *testing.B) { benchReport(b, "sampling") }

// BenchmarkPFS regenerates the parallel-filesystem study.
func BenchmarkPFS(b *testing.B) { benchReport(b, "pfs") }

// BenchmarkPowerCap regenerates the power-capping sweep.
func BenchmarkPowerCap(b *testing.B) { benchReport(b, "powercap") }

// BenchmarkCompression regenerates the payload-compression study.
func BenchmarkCompression(b *testing.B) { benchReport(b, "compression") }

// BenchmarkCinema regenerates the image-database study.
func BenchmarkCinema(b *testing.B) { benchReport(b, "cinema") }

// BenchmarkPipelinePostProcessing measures one full post-processing
// case-study-1 run (the heaviest single unit of work in the suite).
func BenchmarkPipelinePostProcessing(b *testing.B) {
	cfg := DefaultConfig()
	cfg.RealSubsteps = 4
	cs := CaseStudies()[0]
	for i := 0; i < b.N; i++ {
		Run(NewNode(SandyBridge(), uint64(i)+1), PostProcessing, cs, cfg)
	}
}

// BenchmarkPipelineInSitu measures one full in-situ case-study-1 run.
func BenchmarkPipelineInSitu(b *testing.B) {
	cfg := DefaultConfig()
	cfg.RealSubsteps = 4
	cs := CaseStudies()[0]
	for i := 0; i < b.N; i++ {
		Run(NewNode(SandyBridge(), uint64(i)+1), InSitu, cs, cfg)
	}
}

// BenchmarkFioRandRead measures the 4 GiB random-read fio run alone
// (262,144 simulated disk requests).
func BenchmarkFioRandRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunFio(NewNode(SandyBridge(), uint64(i)+1), FioRandRead, DefaultFioConfig())
	}
}

// benchGrid builds the pipelines' 256x256 field with a non-trivial
// profile, matching the per-event work of a real run.
func benchGrid() *Field {
	g := NewHeatSolver(DefaultHeatParams()).Field()
	return g
}

// BenchmarkRender measures the hot render path at the pipelines' frame
// geometry, cycling frames through the pool the way the pipeline does.
// Steady state should report ~0 allocs/op.
func BenchmarkRender(b *testing.B) {
	g := benchGrid()
	opts := viz.DefaultRenderOptions()
	opts.Isolines = []float64{25, 50, 75}
	img, _ := viz.Render(g, opts) // warm the pools
	viz.ReleaseFrame(img)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, _ := viz.Render(g, opts)
		viz.ReleaseFrame(img)
	}
}

// BenchmarkCheckpointEncode measures one checkpoint prefix encode
// (header + 256x256 field, ~512 KiB) with the reusable Encoder.
// Steady state should report 0 allocs/op.
func BenchmarkCheckpointEncode(b *testing.B) {
	g := benchGrid()
	var e checkpoint.Encoder
	buf := e.EncodeTo(nil, g, 0, 0, 4096) // grow scratch and dst once
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.EncodeTo(buf[:0], g, uint64(i), float64(i), 4096)
	}
}

// benchSuiteAll regenerates every registered experiment on the given
// worker count; serial vs parallel quantifies the RunAll speedup
// (meaningful only on multi-core hosts).
func benchSuiteAll(b *testing.B, workers int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		s := benchSuite(uint64(i) + 1)
		reports, err := RunAllExperiments(ctx, s, workers)
		if err != nil {
			b.Fatal(err)
		}
		if want := len(Experiments()); len(reports) != want {
			b.Fatalf("got %d reports, want %d", len(reports), want)
		}
	}
}

// BenchmarkSuiteAllSerial regenerates the full artifact registry on one
// worker.
func BenchmarkSuiteAllSerial(b *testing.B) { benchSuiteAll(b, 1) }

// BenchmarkSuiteAllParallel regenerates the full artifact registry on
// one worker per core.
func BenchmarkSuiteAllParallel(b *testing.B) { benchSuiteAll(b, runtime.GOMAXPROCS(0)) }
