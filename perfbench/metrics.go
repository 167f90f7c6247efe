package main

import "time"

// metricDef names one reported metric. Moves says which end-to-end
// metric a per-layer metric should move, and on which workload; later
// performance changes cite these names.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics every workload reports from untraced passes.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "alloc_mib", Unit: "MiB", Better: "lower"},
}

// figIDs are the paper-figs artifacts, in the order the workload runs
// them.
var figIDs = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "breakdown"}

// fioKinds are the Table III tests in fio.RunAll order.
var fioKinds = []string{"seqread", "randread", "seqwrite", "randwrite"}

var solverApps = []string{"heat", "ocean"}

// layerDefs are the per-layer metrics a traced run reports. A layer a
// workload does not reach reads 0 there.
var layerDefs = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better, moves string) {
		d = append(d, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, id := range figIDs {
		add("exp."+id+".host_s", "s", "lower", "wall_s on paper-figs (fig4 carries the shared pipeline runs)")
	}
	add("exp.table3.host_s", "s", "lower", "wall_s on fio-table3")
	for _, st := range []struct{ name, moves string }{
		{"simulation", "wall_s on insitu-fullfidelity; a few % of paper-figs"},
		{"nnwrite", "wall_s on paper-figs (checkpoint encode, page cache)"},
		{"nnread", "wall_s on paper-figs (checkpoint decode, page cache)"},
		{"visualization", "wall_s on paper-figs; job_cold_p50_s and campaign_s on daemon-mixed; nothing on fio-table3"},
	} {
		add("stage."+st.name+".host_s", "s", "lower", st.moves)
		add("stage."+st.name+".count", "count", "higher", st.moves)
	}
	add("stage.other.host_s", "s", "lower", "wall_s on paper-figs (run self time outside stages)")
	add("run.host_s", "s", "lower", "wall_s on paper-figs and insitu-fullfidelity")
	add("run.count", "count", "higher", "wall_s on paper-figs and insitu-fullfidelity")
	add("viz.frames", "count", "higher", "wall_s on paper-figs")
	add("viz.ms_per_frame", "ms", "lower", "wall_s on paper-figs")
	for _, app := range solverApps {
		moves := "wall_s on insitu-fullfidelity; at most ~5% of paper-figs"
		add("solver."+app+".step_host_s", "s", "lower", moves)
		add("solver."+app+".cell_updates", "count", "higher", moves)
		add("solver."+app+".ns_per_cell_update", "ns", "lower", moves)
	}
	for _, k := range fioKinds {
		moves := "wall_s on fio-table3; nothing on paper-figs"
		add("fio."+k+".host_s", "s", "lower", moves)
		add("fio."+k+".ops", "count", "higher", moves)
		add("fio."+k+".host_us_per_op", "us", "lower", moves)
	}
	add("gc.cpu_s", "s", "lower", "alloc_mib and peak_rss_mib everywhere; wall_s where GC takes the second core")
	add("gc.cycles", "count", "lower", "alloc_mib and peak_rss_mib everywhere")
	add("http.post_job.p50_ms", "ms", "lower", "job_hit_p50_ms and jobs_per_s on daemon-mixed")
	add("http.post_job.p99_ms", "ms", "lower", "job_hit_p99_ms on daemon-mixed")
	add("http.get_report.p50_ms", "ms", "lower", "job_hit_p50_ms and jobs_per_s on daemon-mixed")
	add("http.get_report.p99_ms", "ms", "lower", "job_hit_p99_ms on daemon-mixed")
	add("http.cold_wait.p50_s", "s", "lower", "job_cold_p50_s on daemon-mixed")
	svc := "jobs_per_s and job_hit_* on daemon-mixed"
	add("svc.submitted", "count", "higher", svc)
	add("svc.executions", "count", "lower", svc)
	add("svc.cache_hits", "count", "higher", svc)
	add("svc.deduped", "count", "higher", svc)
	add("svc.rejected", "count", "lower", svc)
	add("svc.hit_ratio", "ratio", "higher", svc+" (base: svc.submitted)")
	add("store.open_s", "s", "lower", "restart_s on daemon-mixed")
	add("store.hits", "count", "higher", "job_store_hit_p50_ms on daemon-mixed")
	add("store.misses", "count", "lower", "job_store_hit_p50_ms on daemon-mixed")
	add("store.entries", "count", "lower", "restart_s on daemon-mixed")
	add("store.bytes", "bytes", "lower", "restart_s on daemon-mixed")
	add("campaign.points_run", "count", "lower", "campaign_s on daemon-mixed")
	add("campaign.points_deduped", "count", "higher", "campaign_s on daemon-mixed")
	add("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s, the cost of tracing")
	return d
}()

// layerValues computes every per-layer metric of one traced pass from
// its spans and counters. Metrics of layers the pass never reached
// read 0.
func layerValues(tr *tracer) map[string]float64 {
	spans := tr.closed()
	total := map[string]time.Duration{}
	count := map[string]int{}
	durs := map[string][]float64{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		count[s.Name]++
		durs[s.Name] = append(durs[s.Name], s.dur().Seconds())
	}
	self := selfTimes(spans)
	var runSelf time.Duration
	for _, s := range spans {
		if s.Name == "run" {
			runSelf += self[s.ID]
		}
	}
	// Counters recorded under a metric's own name are that metric.
	v := map[string]float64{}
	for _, d := range layerDefs {
		v[d.Name] = tr.counts[d.Name]
	}
	sec := func(name string) float64 { return total[name].Seconds() }
	per := func(num, den, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return num * scale / den
	}
	pct := func(name string, p, scale float64) float64 {
		if len(durs[name]) == 0 {
			return 0
		}
		return percentile(durs[name], p) * scale
	}
	for _, id := range append(append([]string(nil), figIDs...), "table3") {
		v["exp."+id+".host_s"] = sec("exp." + id)
	}
	for _, st := range []string{"simulation", "nnwrite", "nnread", "visualization"} {
		v["stage."+st+".host_s"] = sec("stage." + st)
		v["stage."+st+".count"] = float64(count["stage."+st])
	}
	v["stage.other.host_s"] = runSelf.Seconds()
	v["run.host_s"] = sec("run")
	v["run.count"] = float64(count["run"])
	frames := float64(count["stage.visualization"])
	v["viz.frames"] = frames
	v["viz.ms_per_frame"] = per(sec("stage.visualization"), frames, 1e3)
	for _, app := range solverApps {
		v["solver."+app+".step_host_s"] = sec("step." + app)
		v["solver."+app+".ns_per_cell_update"] = per(sec("step."+app), v["solver."+app+".cell_updates"], 1e9)
	}
	for _, k := range fioKinds {
		v["fio."+k+".host_s"] = sec("fio." + k)
		v["fio."+k+".host_us_per_op"] = per(sec("fio."+k), v["fio."+k+".ops"], 1e6)
	}
	v["http.post_job.p50_ms"] = pct("http.post_job", 50, 1e3)
	v["http.post_job.p99_ms"] = pct("http.post_job", 99, 1e3)
	v["http.get_report.p50_ms"] = pct("http.get_report", 50, 1e3)
	v["http.get_report.p99_ms"] = pct("http.get_report", 99, 1e3)
	v["http.cold_wait.p50_s"] = pct("http.job_events", 50, 1)
	v["store.open_s"] = sec("store.open")
	v["svc.hit_ratio"] = per(v["svc.cache_hits"], v["svc.submitted"], 1)
	return v
}
