package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	greenviz "repro"
)

// insituPins are the seed-1 outputs of in-situ case 3 at full fidelity,
// recorded per app from `greenviz -pipeline insitu -case 3
// -real-substeps 1536 -app <app> -seed 1 -format json`.
//
//go:embed testdata/insitu_seed1.json
var insituPins []byte

// pinned is the part of a run's JSON report the pins fix.
type pinned struct {
	FrameChecksum uint64  `json:"frame_checksum"`
	ExecSeconds   float64 `json:"exec_seconds"`
	EnergyJoules  float64 `json:"energy_joules"`
}

var insituFull = workload{
	name: "insitu-fullfidelity",
	why:  "in-situ case 3 computing all 1536 sub-steps, heat then ocean: the only mode where the stencil kernels and par carry the run",
	prepare: func(s *runState) error {
		if s.seed != 1 {
			return nil
		}
		var pins map[string]pinned
		if err := json.Unmarshal(insituPins, &pins); err != nil {
			return fmt.Errorf("insitu pins: %w", err)
		}
		for _, app := range solverApps {
			want, ok := pins[app]
			if !ok {
				return fmt.Errorf("insitu pins: no %s entry", app)
			}
			s.checks["insitu:"+app] = func(out []byte) error {
				var got pinned
				if err := json.Unmarshal(out, &got); err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("got %+v, pinned %+v", got, want)
				}
				return nil
			}
		}
		return nil
	},
	setup: func(s *runState, tr *tracer) (sut, error) {
		r := insituRun{s: s, tr: tr}
		for _, app := range solverApps {
			cfg := greenviz.DefaultConfig()
			cfg.RealSubsteps = cfg.SubstepsPerIteration
			if err := greenviz.ConfigureApp(&cfg, app); err != nil {
				return nil, err
			}
			instrument(&cfg, app, tr)
			r.cfgs = append(r.cfgs, cfg)
			r.nodes = append(r.nodes, greenviz.NewNode(greenviz.SandyBridge(), s.seed))
		}
		return r, nil
	},
}

// insituRun runs in-situ case 3 once per app, each on its own node
// seeded like the CLI's pipeline mode.
type insituRun struct {
	s     *runState
	tr    *tracer
	cfgs  []greenviz.Config
	nodes []*greenviz.Node
}

func (r insituRun) run() error {
	cs := greenviz.CaseStudies()[2]
	for i, app := range solverApps {
		r.tr.push("pipeline." + app)
		res := greenviz.Run(r.nodes[i], greenviz.InSitu, cs, r.cfgs[i])
		r.tr.pop()
		var buf bytes.Buffer
		err := res.EncodeJSON(&buf)
		r.s.op("insitu:"+app, buf.Bytes(), err)
	}
	return nil
}

func (insituRun) close() {}
