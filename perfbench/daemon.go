package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/service"
	"repro/internal/xrand"
)

// The daemon-mixed traffic: a closed loop of clients, each waiting for
// its reply before sending the next request.
const (
	clients  = 2
	coldJobs = 4    // cold in-situ case-3 pipeline jobs per pass
	hotJobs  = 1200 // cache-hit jobs per pass: 12 samples lie beyond p99
)

var (
	campaignSpecPath   = filepath.Join("examples", "campaigns", "greenest-config.json")
	campaignGoldenPath = filepath.Join("internal", "campaign", "testdata", "greenest-config.sha256")
)

var daemonMixed = workload{
	name: "daemon-mixed",
	why:  "in-process greenvizd over loopback HTTP, 2 closed-loop clients: cold campaign and pipeline jobs, cache hits, restart, store hits",
	prepare: func(s *runState) error {
		// The example campaign fixes its own seed, so its report is
		// pinned at every workload seed.
		check, err := goldenCheck(campaignGoldenPath)
		if err != nil {
			return err
		}
		s.checks["campaign"] = check
		return os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755)
	},
	setup: startDaemon,
}

// daemon is greenvizd's serving stack, in process, on a scratch store.
type daemon struct {
	s   *runState
	tr  *tracer
	dir string
	hc  *http.Client

	jobs      *service.Manager
	camps     *campaign.Manager
	srv       *http.Server
	serveDone chan error
	base      string
}

func startDaemon(s *runState, tr *tracer) (sut, error) {
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{s: s, dir: dir, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}}
	if err := d.open(0); err != nil {
		d.close()
		return nil, err
	}
	d.tr = tr // trace the timed phase only
	return d, nil
}

// open starts the stack on d.dir wired as cmd/greenvizd wires it with
// its default flags, and returns once it has served a first request.
func (d *daemon) open(parent int) error {
	id := d.tr.begin("store.open", parent, 0, "")
	store, err := resultstore.Open(resultstore.Options{Dir: d.dir, MaxBytes: 256 << 20, MaxEntries: 4096})
	d.tr.end(id)
	if err != nil {
		return err
	}
	d.jobs = service.NewManager(service.Options{
		Workers:      runtime.GOMAXPROCS(0),
		QueueDepth:   64,
		MaxBodyBytes: 1 << 20,
		Store:        store,
		JobRetention: time.Hour,
		SSEHeartbeat: 15 * time.Second,
	})
	d.camps = campaign.NewManager(d.jobs, campaign.Options{PointWorkers: 4})
	mux := service.Handler(d.jobs)
	d.camps.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute, IdleTimeout: 2 * time.Minute}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	_, err = d.call(parent, 0, "", "http.get_experiments", http.MethodGet, "/v1/experiments", nil)
	return err
}

// shutdown drains the stack as greenvizd does on SIGTERM: campaigns,
// then jobs (which closes the store), then HTTP.
func (d *daemon) shutdown() error {
	if d.jobs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.camps.Close()
	err := d.jobs.Shutdown(ctx)
	d.jobs, d.camps = nil, nil
	if d.srv != nil {
		if serr := d.srv.Shutdown(ctx); serr != nil {
			d.srv.Close()
		}
		<-d.serveDone
		d.srv = nil
	}
	d.hc.CloseIdleConnections()
	return err
}

func (d *daemon) close() {
	if err := d.shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	os.RemoveAll(d.dir)
}

// call makes one HTTP request inside a span and returns the body, or an
// error for a non-2xx status.
func (d *daemon) call(parent, lane int, job, name, method, path string, body []byte) ([]byte, error) {
	id := d.tr.begin(name, parent, lane, job)
	defer d.tr.end(id)
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// wait follows an SSE stream to its end and checks it ended done.
func (d *daemon) wait(parent, lane int, job, name, path string) error {
	data, err := d.call(parent, lane, job, name, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	if last != "done" {
		return fmt.Errorf("%s ended with event %q", path, last)
	}
	return nil
}

type view struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// job submits spec and returns its report, waiting on /events unless
// the submit came back already done (a cache or store hit).
func (d *daemon) job(parent, lane int, key string, spec service.JobSpec) ([]byte, error) {
	id := d.tr.begin("job", parent, lane, key)
	defer d.tr.end(id)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	data, err := d.call(id, lane, key, "http.post_job", http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return nil, err
	}
	var v view
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("job view: %w", err)
	}
	if v.State != "done" {
		if err := d.wait(id, lane, key, "http.job_events", "/v1/jobs/"+v.ID+"/events"); err != nil {
			return nil, err
		}
	}
	return d.call(id, lane, key, "http.get_report", http.MethodGet, "/v1/jobs/"+v.ID+"/report", nil)
}

// campaign posts a campaign spec and returns its report.
func (d *daemon) campaign(parent, lane int, spec []byte) ([]byte, error) {
	id := d.tr.begin("campaign", parent, lane, "campaign")
	defer d.tr.end(id)
	data, err := d.call(id, lane, "campaign", "http.post_campaign", http.MethodPost, "/v1/campaigns", spec)
	if err != nil {
		return nil, err
	}
	var v view
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("campaign view: %w", err)
	}
	if err := d.wait(id, lane, "campaign", "http.campaign_events", "/v1/campaigns/"+v.ID+"/events"); err != nil {
		return nil, err
	}
	return d.call(id, lane, "campaign", "http.get_campaign_report", http.MethodGet, "/v1/campaigns/"+v.ID+"/report", nil)
}

// metrics reads the unlabeled /metrics counters.
func (d *daemon) metrics() (map[string]float64, error) {
	data, err := d.call(d.tr.top(), 0, "", "http.get_metrics", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsAny(name, "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// loop runs n items over the closed-loop clients; each client takes the
// next item once its previous one has completed.
func loop(n int, do func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 1; lane <= clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(lane, i)
			}
		}(lane)
	}
	wg.Wait()
}

// specs returns the pass's inputs: the example campaign, and the job
// specs — the cold pipeline jobs, seeded from the workload seed, then
// the campaign's points.
func (d *daemon) specs() (campaignSpec []byte, jobs []service.JobSpec, err error) {
	for i := 0; i < coldJobs; i++ {
		jobs = append(jobs, service.JobSpec{Pipeline: "insitu", Case: 3, Seed: xrand.SeedFor(d.s.seed, fmt.Sprintf("daemon/cold/%d", i))})
	}
	campaignSpec, err = os.ReadFile(campaignSpecPath)
	if err != nil {
		return nil, nil, err
	}
	var spec campaign.Spec
	if err := json.Unmarshal(campaignSpec, &spec); err != nil {
		return nil, nil, fmt.Errorf("campaign spec: %w", err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		return nil, nil, err
	}
	points, err := campaign.Expand(norm)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range points {
		jobs = append(jobs, p.Spec)
	}
	return campaignSpec, jobs, nil
}

// run drives the four phases: cold, hot, restart, resubmit.
func (d *daemon) run() error {
	campaignSpec, specs, err := d.specs()
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("job:%d", i%len(specs)) }
	sample := func(name string, v float64) {
		if d.tr == nil {
			d.s.sample(name, v)
		}
	}
	first, err := d.metrics()
	if err != nil {
		return err
	}

	// Cold: the campaign and the cold pipeline jobs, first come first
	// served by the two clients.
	ph := d.tr.push("phase.cold")
	loop(1+coldJobs, func(lane, i int) {
		t0 := time.Now()
		if i == 0 {
			rep, err := d.campaign(ph, lane, campaignSpec)
			sample("campaign_s", time.Since(t0).Seconds())
			d.s.op("campaign", rep, err)
			return
		}
		rep, err := d.job(ph, lane, key(i-1), specs[i-1])
		sample("job_cold_s", time.Since(t0).Seconds())
		d.s.op(key(i-1), rep, err)
	})
	d.tr.pop()

	// Hot: every finished spec again, round robin; all memory-cache hits.
	ph = d.tr.push("phase.hot")
	t0 := time.Now()
	loop(hotJobs, func(lane, i int) {
		t := time.Now()
		rep, err := d.job(ph, lane, key(i), specs[i%len(specs)])
		sample("job_hit_ms", float64(time.Since(t).Nanoseconds())/1e6)
		d.s.op(key(i), rep, err)
	})
	sample("jobs_per_s", hotJobs/time.Since(t0).Seconds())
	d.tr.pop()

	// Restart on the same store.
	beforeRestart, err := d.metrics()
	if err != nil {
		return err
	}
	ph = d.tr.push("phase.restart")
	t0 = time.Now()
	if err := d.shutdown(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if err := d.open(ph); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	sample("restart_s", time.Since(t0).Seconds())
	d.tr.pop()
	afterRestart, err := d.metrics()
	if err != nil {
		return err
	}

	// Resubmit: every spec once from the store, and the campaign again.
	ph = d.tr.push("phase.resubmit")
	loop(1+len(specs), func(lane, i int) {
		if i == 0 {
			rep, err := d.campaign(ph, lane, campaignSpec)
			d.s.op("campaign", rep, err)
			return
		}
		t := time.Now()
		rep, err := d.job(ph, lane, key(i-1), specs[i-1])
		sample("job_store_hit_ms", float64(time.Since(t).Nanoseconds())/1e6)
		d.s.op(key(i-1), rep, err)
	})
	d.tr.pop()
	last, err := d.metrics()
	if err != nil {
		return err
	}
	d.countService(first, beforeRestart, afterRestart, last)
	return nil
}

// countService records the service, store and campaign counters over
// both daemon lifetimes of the pass.
func (d *daemon) countService(first, beforeRestart, afterRestart, last map[string]float64) {
	delta := func(name string) float64 {
		return beforeRestart[name] - first[name] + last[name] - afterRestart[name]
	}
	for metric, series := range map[string]string{
		"svc.submitted":           "greenvizd_jobs_submitted_total",
		"svc.executions":          "greenvizd_executions_total",
		"svc.cache_hits":          "greenvizd_cache_hits_total",
		"svc.deduped":             "greenvizd_jobs_deduped_total",
		"svc.rejected":            "greenvizd_jobs_rejected_total",
		"store.hits":              "greenvizd_store_hits_total",
		"store.misses":            "greenvizd_store_misses_total",
		"campaign.points_run":     "greenvizd_campaign_points_run_total",
		"campaign.points_deduped": "greenvizd_campaign_points_deduped_total",
	} {
		d.tr.add(metric, delta(series))
	}
	d.tr.add("store.entries", last["greenvizd_store_entries"])
	d.tr.add("store.bytes", last["greenvizd_store_bytes"])
}

// extraMetrics computes daemon-mixed's own end-to-end metrics from its
// untraced samples, and states how many samples the hit tail rests on.
// They exist on no other workload, so they are printed and written to
// the result file but are not among the metrics every workload reports.
func extraMetrics(s *runState, w io.Writer) map[string]metricValue {
	hit := s.samples["job_hit_ms"]
	if len(hit) == 0 {
		return nil
	}
	t, _ := tail(hit)
	fmt.Fprintf(w, "job_hit: n=%d samples, %d beyond p99; highest percentile with >=%d beyond: p%g = %.4f ms\n",
		len(hit), len(hit)-rank(99, len(hit)), minBeyond, t.P, t.Value)
	return map[string]metricValue{
		"job_hit_p50_ms":       {median(hit), "ms"},
		"job_hit_p99_ms":       {percentile(hit, 99), "ms"},
		"jobs_per_s":           {median(s.samples["jobs_per_s"]), "1/s"},
		"job_cold_p50_s":       {median(s.samples["job_cold_s"]), "s"},
		"job_store_hit_p50_ms": {median(s.samples["job_store_hit_ms"]), "ms"},
		"campaign_s":           {median(s.samples["campaign_s"]), "s"},
		"restart_s":            {median(s.samples["restart_s"]), "s"},
	}
}
