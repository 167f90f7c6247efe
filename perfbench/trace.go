package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	greenviz "repro"
)

// span is one timed interval at a layer boundary. Parent 0 is the root;
// spans of one daemon job share Job.
type span struct {
	ID, Parent int
	Name       string
	Job        string
	Lane       int // the goroutine that drove it: 0 the main goroutine, 1.. the HTTP clients
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer records nothing, so untraced passes pay one nil check per
// boundary.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int // open spans of the main goroutine, innermost last
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent, lane int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Lane: lane, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// push opens a span on the main goroutine under its innermost open span.
func (t *tracer) push(name string) int {
	if t == nil {
		return 0
	}
	id := t.begin(name, t.top(), 0, "")
	t.stack = append(t.stack, id)
	return id
}

// pop closes the main goroutine's innermost open span.
func (t *tracer) pop() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.end(t.stack[len(t.stack)-1])
	t.stack = t.stack[:len(t.stack)-1]
}

// top is the main goroutine's innermost open span, 0 when none.
func (t *tracer) top() int {
	if t == nil || len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children that overlap each other (concurrent clients)
// are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range ks {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// layerTable sums duration and self time per span name, largest self
// time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// printLayerTable writes the self-time table; shares are of wall.
func printLayerTable(w io.Writer, rows []layerRow, wall time.Duration) {
	fmt.Fprintf(w, "%-28s %8s %11s %11s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %11.4f %11.4f %6.1f%%\n", r.Name, r.Count,
			r.Total.Seconds(), r.Self.Seconds(), 100*r.Self.Seconds()/wall.Seconds())
	}
}

// writeChrome exports spans as Chrome trace-event JSON (complete "X"
// events, microseconds), which Perfetto and chrome://tracing load.
func writeChrome(w io.Writer, spans []span, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Job != "" {
			args["job"] = s.Job
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, event{Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       meta,
		"traceEvents":     evs,
	})
}

// stageSpans turns a run's telemetry stream into run and stage spans on
// the main goroutine, read off the host clock at each bracket.
type stageSpans struct{ tr *tracer }

func (c stageSpans) Consume(ev greenviz.TelemetryEvent) {
	switch ev.Kind {
	case greenviz.TelemetryRunStart:
		c.tr.push("run")
	case greenviz.TelemetryStageStart:
		c.tr.push("stage." + ev.Stage)
	case greenviz.TelemetryStageDone, greenviz.TelemetryRunEnd:
		c.tr.pop()
	}
}

// timedSim times every solver Step and counts the cell updates it
// computes.
type timedSim struct {
	greenviz.Simulator
	tr          *tracer
	step, cells string
}

func (s timedSim) Step(n int) {
	s.tr.push(s.step)
	s.Simulator.Step(n)
	s.tr.pop()
	s.tr.add(s.cells, float64(s.Simulator.CellUpdates(n)))
}

// instrument attaches the stage-span consumer to cfg and wraps its
// solver in timedSim, built exactly as a run of app would build it. A
// nil tracer leaves cfg untouched.
func instrument(cfg *greenviz.Config, app string, tr *tracer) {
	if tr == nil {
		return
	}
	build := cfg.NewSimulator
	if build == nil {
		p := cfg.Heat
		if p.Workers == 0 {
			p.Workers = cfg.KernelWorkers
		}
		build = func() greenviz.Simulator { return greenviz.NewHeatSolver(p) }
	}
	cfg.NewSimulator = func() greenviz.Simulator {
		return timedSim{Simulator: build(), tr: tr, step: "step." + app, cells: "solver." + app + ".cell_updates"}
	}
	cfg.Telemetry = stageSpans{tr}
}
