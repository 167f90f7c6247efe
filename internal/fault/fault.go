// Package fault is a deterministic, seed-driven fault injector for the
// simulated storage stack. The storage layers (disk, filesystem,
// parallel filesystem) consult an Injector at their hook points:
//
//   - bit-rot on bytes delivered by a read, tripping the checkpoint
//     CRCs downstream;
//   - transient read/write errors (the syscall-level EIO class);
//   - latency spikes on disk requests (vibration, remapped sectors,
//     firmware recalibration);
//   - server drops on the parallel filesystem (a missed RPC window that
//     stalls the client out to a timeout).
//
// Injection is off by default: every decision method is safe — and
// free — on a nil *Injector, so the hooks cost nothing (0 allocs, a
// nil check) in fault-free runs and seed outputs stay byte-identical.
// With an injector attached, all decisions are drawn from one PRNG
// stream seeded by Config.Seed, so a given (config, workload) pair
// replays the exact same fault schedule every time.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The telemetry source names fault classes fire under.
const (
	SourceBitRot       = "bitrot"
	SourceReadError    = "readerr"
	SourceWriteError   = "writeerr"
	SourceLatencySpike = "latency"
	SourceServerDrop   = "drop"
)

// ErrTransient marks an injected fault that a bounded retry can clear:
// the next attempt draws a fresh decision from the stream.
var ErrTransient = errors.New("transient I/O fault")

// Config sets the per-operation fault probabilities. The zero value
// disables injection entirely.
type Config struct {
	// Seed seeds the injector's decision stream; equal (Seed, workload)
	// pairs produce identical fault schedules.
	Seed uint64

	// BitRot is the per-read probability that the delivered bytes are
	// corrupted (1–4 bit flips at random positions). The stored data is
	// unharmed: a re-read may come back clean.
	BitRot float64
	// ReadErr is the per-read probability of a transient read error.
	ReadErr float64
	// WriteErr is the per-write probability of a transient write error.
	WriteErr float64
	// Latency is the per-disk-request probability of a latency spike of
	// Spike seconds added to the request's positioning time.
	Latency float64
	// Spike is the spike duration (default 150 ms — a recalibration
	// pass or a remapped-sector retry train).
	Spike units.Seconds
	// Drop is the per-request probability that a parallel-filesystem
	// server misses its RPC window; the client stalls DropTimeout and
	// the request fails with ErrTransient.
	Drop float64
	// DropTimeout is the client-side stall charged on a dropped PFS
	// request (default 1 s).
	DropTimeout units.Seconds
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.BitRot > 0 || c.ReadErr > 0 || c.WriteErr > 0 || c.Latency > 0 || c.Drop > 0
}

// withDefaults fills the duration knobs.
func (c Config) withDefaults() Config {
	if c.Spike <= 0 {
		c.Spike = 150 * units.Millisecond
	}
	if c.DropTimeout <= 0 {
		c.DropTimeout = 1
	}
	return c
}

// Stats counts the faults an injector has fired, for attribution in
// run results and reports.
type Stats struct {
	BitRots       uint64        `json:"bit_rots"`
	ReadErrors    uint64        `json:"read_errors"`
	WriteErrors   uint64        `json:"write_errors"`
	LatencySpikes uint64        `json:"latency_spikes"`
	SpikeTime     units.Seconds `json:"spike_seconds"`
	ServerDrops   uint64        `json:"server_drops"`
}

// Total returns the number of discrete fault events fired.
func (s Stats) Total() uint64 {
	return s.BitRots + s.ReadErrors + s.WriteErrors + s.LatencySpikes + s.ServerDrops
}

// Injector draws fault decisions from one deterministic stream. It is
// not safe for concurrent use; give each run its own, like the node it
// faults. All methods are no-ops on a nil receiver.
type Injector struct {
	cfg   Config
	rng   *xrand.Rand
	stats Stats
	tel   *telemetry.Bus
}

// New builds an injector for the config.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: xrand.New(cfg.Seed)}
}

// AttachTelemetry routes one FaultInjected event per fired fault onto
// bus. Emission never touches the decision stream, so an attached bus
// leaves the fault schedule — and run output — untouched. No-op on a
// nil receiver.
func (i *Injector) AttachTelemetry(bus *telemetry.Bus) {
	if i == nil {
		return
	}
	i.tel = bus
}

// fired emits one FaultInjected event (source = fault class, value =
// charged stall in seconds for classes that stall).
func (i *Injector) fired(source string, stall units.Seconds) {
	if !i.tel.Active() {
		return
	}
	i.tel.Emit(telemetry.Event{
		Kind:   telemetry.KindFaultInjected,
		Source: source,
		Value:  float64(stall),
	})
}

// Stats returns a copy of the fired-fault counters (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// ReadError decides whether this read fails transiently.
func (i *Injector) ReadError() bool {
	if i == nil || i.cfg.ReadErr <= 0 || i.rng.Float64() >= i.cfg.ReadErr {
		return false
	}
	i.stats.ReadErrors++
	i.fired(SourceReadError, 0)
	return true
}

// WriteError decides whether this write fails transiently.
func (i *Injector) WriteError() bool {
	if i == nil || i.cfg.WriteErr <= 0 || i.rng.Float64() >= i.cfg.WriteErr {
		return false
	}
	i.stats.WriteErrors++
	i.fired(SourceWriteError, 0)
	return true
}

// Rot maybe corrupts p in place (1–4 bit flips) and reports whether it
// did. Only the caller's buffer is touched, never the stored data.
func (i *Injector) Rot(p []byte) bool {
	if i == nil || i.cfg.BitRot <= 0 || len(p) == 0 || i.rng.Float64() >= i.cfg.BitRot {
		return false
	}
	flips := 1 + i.rng.Intn(4)
	for k := 0; k < flips; k++ {
		p[i.rng.Intn(len(p))] ^= 1 << i.rng.Intn(8)
	}
	i.stats.BitRots++
	i.fired(SourceBitRot, 0)
	return true
}

// LatencySpike returns the extra positioning delay for this disk
// request: Spike seconds when the injector fires, 0 otherwise.
func (i *Injector) LatencySpike() units.Seconds {
	if i == nil || i.cfg.Latency <= 0 || i.rng.Float64() >= i.cfg.Latency {
		return 0
	}
	i.stats.LatencySpikes++
	i.stats.SpikeTime += i.cfg.Spike
	i.fired(SourceLatencySpike, i.cfg.Spike)
	return i.cfg.Spike
}

// ServerDrop decides whether a parallel-filesystem request is dropped.
func (i *Injector) ServerDrop() bool {
	if i == nil || i.cfg.Drop <= 0 || i.rng.Float64() >= i.cfg.Drop {
		return false
	}
	i.stats.ServerDrops++
	i.fired(SourceServerDrop, i.cfg.DropTimeout)
	return true
}

// DropTimeout returns the stall charged on a dropped PFS request.
func (i *Injector) DropTimeout() units.Seconds {
	if i == nil {
		return 0
	}
	return i.cfg.DropTimeout
}

// maxSeconds caps the spike and timeout durations ParseSpec accepts.
// Every injected fault stretches the simulated run by that long, and
// the host time of a run grows with its simulated length, so a huge
// value (1e300, Inf) keeps a run going for practically ever. A minute
// is far beyond any realistic stall.
const maxSeconds = 60

// ParseSpec parses the CLI's -faults value: a comma-separated list of
// key=value pairs among bitrot, readerr, writeerr, latency, drop
// (probabilities in [0,1]), spike, timeout (seconds in [0, 60]), and
// seed. Non-finite values are rejected. An empty spec returns
// (nil, nil): injection off.
func ParseSpec(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var c Config
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault: malformed entry %q (want key=value)", part)
		}
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			c.Seed = seed
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad value %q for %s: %v", val, key, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("fault: %s must be finite, got %v", key, f)
		}
		if f < 0 {
			return nil, fmt.Errorf("fault: %s must be non-negative, got %v", key, f)
		}
		switch key {
		case "bitrot", "readerr", "writeerr", "latency", "drop":
			if f > 1 {
				return nil, fmt.Errorf("fault: %s is a probability, got %v > 1", key, f)
			}
		case "spike", "timeout":
			if f > maxSeconds {
				return nil, fmt.Errorf("fault: %s is capped at %d s, got %v", key, maxSeconds, f)
			}
		}
		switch key {
		case "bitrot":
			c.BitRot = f
		case "readerr":
			c.ReadErr = f
		case "writeerr":
			c.WriteErr = f
		case "latency":
			c.Latency = f
		case "spike":
			c.Spike = units.Seconds(f)
		case "drop":
			c.Drop = f
		case "timeout":
			c.DropTimeout = units.Seconds(f)
		default:
			return nil, fmt.Errorf("fault: unknown key %q (bitrot, readerr, writeerr, latency, spike, drop, timeout, seed)", key)
		}
	}
	return &c, nil
}
