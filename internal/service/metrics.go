package service

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultstore"
	"repro/internal/units"
)

// Metrics is the service's plain-text counter set, served at
// GET /metrics in a Prometheus-compatible exposition format (untyped
// lines; no client dependency). Counters are monotonic totals; gauges
// report instantaneous state the manager fills in at scrape time.
type Metrics struct {
	// Submission outcomes.
	Submitted  atomic.Uint64 // accepted submits (including deduped)
	Rejected   atomic.Uint64 // 4xx/5xx submits: bad spec, queue full, draining
	Deduped    atomic.Uint64 // submits attached to an in-flight execution
	CacheHits  atomic.Uint64 // submits served from a completed execution
	Executions atomic.Uint64 // underlying runs actually started

	// Execution outcomes.
	Completed atomic.Uint64
	Failed    atomic.Uint64
	Canceled  atomic.Uint64

	// StorePutErrors counts durable-store writes that failed (job
	// reports and campaign state records): the result stays served from
	// memory but will not survive a restart.
	StorePutErrors atomic.Uint64

	// Retired counts terminal jobs pruned by retention GC.
	Retired atomic.Uint64

	// FaultsInjected counts storage faults fired across all executions
	// (from FaultInjected telemetry; zero unless jobs enable injection).
	FaultsInjected atomic.Uint64

	// Campaign accounting (filled by internal/campaign through the
	// manager it submits points to).
	CampaignsActive       atomic.Int64  // campaigns currently expanding or running
	CampaignsCompleted    atomic.Uint64 // campaigns that reached done
	CampaignPointsRun     atomic.Uint64 // points that started a fresh execution
	CampaignPointsDeduped atomic.Uint64 // points served by an existing execution/cache/store

	// Live state.
	Running atomic.Int64

	// startedAt anchors the process-uptime gauge; NewManager stamps it.
	startedAt time.Time

	mu           sync.Mutex
	stageSeconds map[string]float64
	stageJoules  map[string]float64
}

// BuildVersion labels the greenvizd_build_info metric; the daemon's
// main overrides it from its build metadata when available.
var BuildVersion = "dev"

// addStageTime accumulates one stage execution's virtual duration.
func (m *Metrics) addStageTime(phase string, d units.Seconds) {
	m.mu.Lock()
	if m.stageSeconds == nil {
		m.stageSeconds = map[string]float64{}
	}
	m.stageSeconds[phase] += float64(d)
	m.mu.Unlock()
}

// addStageEnergy accumulates one stage execution's metered energy.
func (m *Metrics) addStageEnergy(phase string, e units.Joules) {
	m.mu.Lock()
	if m.stageJoules == nil {
		m.stageJoules = map[string]float64{}
	}
	m.stageJoules[phase] += float64(e)
	m.mu.Unlock()
}

// WriteTo writes the exposition text. Lines are sorted so scrapes are
// stable; queueDepth, cacheEntries, and jobs are gauges the manager
// samples, and store carries the durable result store's counters
// (all-zero when no store is configured).
func (m *Metrics) WriteTo(w io.Writer, queueDepth, cacheEntries, jobs int, store resultstore.Stats) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(w, "greenvizd_build_info{version=%q,go_version=%q} 1\n", BuildVersion, runtime.Version())
	fmt.Fprintf(w, "greenvizd_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(w, "greenvizd_cache_hits_total %d\n", m.CacheHits.Load())
	fmt.Fprintf(w, "greenvizd_campaign_points_deduped_total %d\n", m.CampaignPointsDeduped.Load())
	fmt.Fprintf(w, "greenvizd_campaign_points_run_total %d\n", m.CampaignPointsRun.Load())
	fmt.Fprintf(w, "greenvizd_campaigns_active %d\n", m.CampaignsActive.Load())
	fmt.Fprintf(w, "greenvizd_campaigns_completed_total %d\n", m.CampaignsCompleted.Load())
	fmt.Fprintf(w, "greenvizd_executions_total %d\n", m.Executions.Load())
	fmt.Fprintf(w, "greenvizd_faults_injected_total %d\n", m.FaultsInjected.Load())
	fmt.Fprintf(w, "greenvizd_go_gc_cycles_total %d\n", mem.NumGC)
	fmt.Fprintf(w, "greenvizd_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "greenvizd_go_heap_alloc_bytes %d\n", mem.HeapAlloc)
	fmt.Fprintf(w, "greenvizd_jobs_canceled_total %d\n", m.Canceled.Load())
	fmt.Fprintf(w, "greenvizd_jobs_completed_total %d\n", m.Completed.Load())
	fmt.Fprintf(w, "greenvizd_jobs_deduped_total %d\n", m.Deduped.Load())
	fmt.Fprintf(w, "greenvizd_jobs_failed_total %d\n", m.Failed.Load())
	fmt.Fprintf(w, "greenvizd_jobs_rejected_total %d\n", m.Rejected.Load())
	fmt.Fprintf(w, "greenvizd_jobs_retired_total %d\n", m.Retired.Load())
	fmt.Fprintf(w, "greenvizd_jobs_running %d\n", m.Running.Load())
	fmt.Fprintf(w, "greenvizd_jobs_submitted_total %d\n", m.Submitted.Load())
	fmt.Fprintf(w, "greenvizd_jobs_tracked %d\n", jobs)
	uptime := 0.0
	if !m.startedAt.IsZero() {
		uptime = time.Since(m.startedAt).Seconds()
	}
	fmt.Fprintf(w, "greenvizd_process_uptime_seconds %.3f\n", uptime)
	fmt.Fprintf(w, "greenvizd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "greenvizd_store_bytes %d\n", store.Bytes)
	fmt.Fprintf(w, "greenvizd_store_corruptions_total %d\n", store.Corruptions)
	fmt.Fprintf(w, "greenvizd_store_entries %d\n", store.Entries)
	fmt.Fprintf(w, "greenvizd_store_evictions_total %d\n", store.Evictions)
	fmt.Fprintf(w, "greenvizd_store_hits_total %d\n", store.Hits)
	fmt.Fprintf(w, "greenvizd_store_misses_total %d\n", store.Misses)
	fmt.Fprintf(w, "greenvizd_store_put_errors_total %d\n", m.StorePutErrors.Load())

	m.mu.Lock()
	phases := make([]string, 0, len(m.stageJoules))
	for p := range m.stageJoules {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(w, "greenvizd_stage_joules_total{stage=%q} %.3f\n", p, m.stageJoules[p])
	}
	phases = phases[:0]
	for p := range m.stageSeconds {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(w, "greenvizd_stage_virtual_seconds_total{stage=%q} %.3f\n", p, m.stageSeconds[p])
	}
	m.mu.Unlock()
}
