package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	greenviz "repro"
	"repro/internal/fio"
	"repro/internal/xrand"
)

// cliRealSubsteps is the CLI's default host fidelity, which the golden
// digests certify.
const cliRealSubsteps = 16

var paperFigs = workload{
	name: "paper-figs",
	why:  "the paper's post-vs-in-situ comparison: render, PNG/flate, checkpoint encode and large sequential page-cache writes; RangeSet nearly idle",
	prepare: func(s *runState) error {
		return goldenExperiments(s, figIDs...)
	},
	setup: func(s *runState, tr *tracer) (sut, error) {
		cfg := greenviz.DefaultConfig()
		cfg.RealSubsteps = cliRealSubsteps
		instrument(&cfg, "heat", tr)
		return figsRun{s: s, tr: tr, suite: greenviz.NewSuite(s.seed, &cfg)}, nil
	},
}

// figsRun regenerates the paper's figures serially on one fresh suite.
type figsRun struct {
	s     *runState
	tr    *tracer
	suite *greenviz.Suite
}

func (r figsRun) run() error {
	for _, id := range figIDs {
		r.tr.push("exp." + id)
		rep, err := greenviz.RunExperiment(r.suite, id)
		r.tr.pop()
		r.s.op("exp:"+id, []byte(rep.Block()), err)
	}
	return nil
}

func (figsRun) close() {}

var fioTable3 = workload{
	name: "fio-table3",
	why:  "Table III: 262,144 random 16 KiB ops through RangeSet, page-cache throttle/writeback and the disk model at 4 GiB, no render",
	prepare: func(s *runState) error {
		return goldenExperiments(s, "table3")
	},
	setup: func(s *runState, tr *tracer) (sut, error) {
		if tr == nil {
			return table3Run{s: s, suite: greenviz.NewSuite(s.seed, nil)}, nil
		}
		// The table3 experiment's own node: same platform, same stream key.
		node := greenviz.NewNode(greenviz.SandyBridge(), xrand.SeedFor(s.seed, "fio/table3"))
		return table3Run{s: s, tr: tr, node: node}, nil
	},
}

// table3Run regenerates Table III: untraced through the experiment
// registry, traced by calling fio.Run per test in fio.RunAll order so
// each test gets its own span.
type table3Run struct {
	s     *runState
	tr    *tracer
	suite *greenviz.Suite
	node  *greenviz.Node
}

func (r table3Run) run() error {
	if r.tr == nil {
		rep, err := greenviz.RunExperiment(r.suite, "table3")
		r.s.op("exp:table3", []byte(rep.Block()), err)
		return nil
	}
	cfg := fio.DefaultConfig()
	r.tr.push("exp.table3")
	var res []fio.Result
	for i, k := range []fio.TestKind{fio.SeqRead, fio.RandRead, fio.SeqWrite, fio.RandWrite} {
		block := cfg.SeqBlock
		if k == fio.RandRead || k == fio.RandWrite {
			block = cfg.RandBlock
		}
		r.tr.push("fio." + fioKinds[i])
		res = append(res, fio.Run(r.node, k, cfg))
		r.tr.pop()
		r.tr.add("fio."+fioKinds[i]+".ops", float64(cfg.FileSize/block))
	}
	rep := table3Report(res)
	r.tr.pop()
	r.s.op("exp:table3", []byte(rep.Block()), nil)
	return nil
}

func (table3Run) close() {}

// table3Report lays out fio results the way the table3 experiment
// does. The traced pass's report must equal the untraced pass's byte
// for byte, so any drift from the experiment's layout fails the run.
func table3Report(res []fio.Result) greenviz.Report {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	header := []string{"Metric", "Sequential Read", "Random Read", "Sequential Write", "Random Write"}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	dashes := make([]string, len(header))
	for i, h := range header {
		dashes[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(dashes, "\t"))
	row := func(label string, f func(fio.Result) string) {
		cells := []string{label}
		for _, r := range res {
			cells = append(cells, f(r))
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	row("Execution time (s)", func(r fio.Result) string { return fmt.Sprintf("%.1f", float64(r.ExecTime)) })
	row("Full-system power (W)", func(r fio.Result) string { return fmt.Sprintf("%.1f", float64(r.FullSystemPower)) })
	row("Disk dynamic power (W)", func(r fio.Result) string { return fmt.Sprintf("%.1f", float64(r.DiskDynPower)) })
	row("Disk dynamic energy (KJ)", func(r fio.Result) string { return fmt.Sprintf("%.2f", r.DiskDynEnergy.KJ()) })
	row("Full-system energy (KJ)", func(r fio.Result) string { return fmt.Sprintf("%.1f", r.FullSystemEnergy.KJ()) })
	w.Flush() //nolint:errcheck // strings.Builder cannot fail
	return greenviz.Report{
		ID:    "table3",
		Title: "Table III: Performance, power, and energy for the fio tests",
		Body:  b.String() + "\nPaper: 35.9/2230/27/31 s; 118/107/115.4/117.9 W; energy 4.2/238.6/3.1/3.6 KJ.\n",
	}
}

// goldenExperiments pins, at seed 1, each experiment's report to the
// committed digest the CLI output is certified against.
func goldenExperiments(s *runState, ids ...string) error {
	if s.seed != 1 {
		return nil
	}
	for _, id := range ids {
		check, err := goldenCheck(filepath.Join("internal", "experiments", "testdata", "golden", id+".sha256"))
		if err != nil {
			return err
		}
		s.checks["exp:"+id] = check
	}
	return nil
}

// goldenCheck reads a committed "<sha256>  <name>" digest file.
func goldenCheck(path string) (func([]byte) error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digest: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return nil, fmt.Errorf("golden digest %s is empty", path)
	}
	want := fields[0]
	return func(out []byte) error {
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
			return fmt.Errorf("sha256 %.12s, golden %.12s", got, want)
		}
		return nil
	}, nil
}
