package fault

import (
	"bytes"
	"testing"

	"repro/internal/units"
)

// TestNilInjectorIsInert confirms every hook is a safe no-op without an
// injector — the fault-free hot path.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	buf := []byte{1, 2, 3, 4}
	if inj.ReadError() || inj.WriteError() || inj.ServerDrop() {
		t.Error("nil injector fired an error")
	}
	if inj.Rot(buf) {
		t.Error("nil injector rotted bytes")
	}
	if d := inj.LatencySpike(); d != 0 {
		t.Errorf("nil injector spiked %v", d)
	}
	if st := inj.Stats(); st.Total() != 0 {
		t.Errorf("nil injector has stats %+v", st)
	}
}

// TestNilInjectorZeroAllocs pins the disabled-hook cost at 0 allocs —
// the guarantee that lets the hooks live on the storage hot path.
func TestNilInjectorZeroAllocs(t *testing.T) {
	var inj *Injector
	buf := make([]byte, 64)
	avg := testing.AllocsPerRun(200, func() {
		inj.ReadError()
		inj.WriteError()
		inj.Rot(buf)
		inj.LatencySpike()
		inj.ServerDrop()
	})
	if avg != 0 {
		t.Errorf("disabled fault hooks allocate %.1f allocs/op, want 0", avg)
	}
}

// TestEnabledInjectorZeroAllocs pins the enabled decision path too: an
// attached injector still must not allocate per decision.
func TestEnabledInjectorZeroAllocs(t *testing.T) {
	inj := New(Config{Seed: 1, BitRot: 0.5, ReadErr: 0.5, WriteErr: 0.5, Latency: 0.5, Drop: 0.5})
	buf := make([]byte, 64)
	avg := testing.AllocsPerRun(200, func() {
		inj.ReadError()
		inj.WriteError()
		inj.Rot(buf)
		inj.LatencySpike()
		inj.ServerDrop()
	})
	if avg != 0 {
		t.Errorf("enabled fault hooks allocate %.1f allocs/op, want 0", avg)
	}
}

// TestDeterministicSchedule replays the same config twice and expects
// an identical decision sequence and identical stats.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, BitRot: 0.3, ReadErr: 0.3, WriteErr: 0.3, Latency: 0.3, Drop: 0.3}
	run := func() ([]bool, Stats) {
		inj := New(cfg)
		var seq []bool
		buf := make([]byte, 32)
		for i := 0; i < 200; i++ {
			seq = append(seq, inj.ReadError(), inj.WriteError(), inj.Rot(buf),
				inj.LatencySpike() > 0, inj.ServerDrop())
		}
		return seq, inj.Stats()
	}
	seqA, stA := run()
	seqB, stB := run()
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d differs between identically-seeded injectors", i)
		}
	}
	if stA != stB {
		t.Errorf("stats differ: %+v vs %+v", stA, stB)
	}
	if stA.Total() == 0 {
		t.Error("30%% rates over 1000 decisions fired nothing")
	}
}

// TestRotFlipsDeliveredBytesOnly verifies rot mutates the caller's
// buffer (and always changes it).
func TestRotFlipsDeliveredBytesOnly(t *testing.T) {
	inj := New(Config{Seed: 7, BitRot: 1})
	orig := bytes.Repeat([]byte{0xAA}, 128)
	got := append([]byte(nil), orig...)
	if !inj.Rot(got) {
		t.Fatal("BitRot=1 did not fire")
	}
	if bytes.Equal(got, orig) {
		t.Error("rot fired but bytes unchanged")
	}
	if inj.Stats().BitRots != 1 {
		t.Errorf("BitRots = %d, want 1", inj.Stats().BitRots)
	}
}

// TestSpikeDefaultsAndStats checks the spike duration default and its
// accounting.
func TestSpikeDefaultsAndStats(t *testing.T) {
	inj := New(Config{Seed: 3, Latency: 1})
	d := inj.LatencySpike()
	if d != 150*units.Millisecond {
		t.Errorf("default spike = %v, want 150ms", d)
	}
	st := inj.Stats()
	if st.LatencySpikes != 1 || st.SpikeTime != d {
		t.Errorf("spike stats %+v", st)
	}
	if got := New(Config{Seed: 3}).DropTimeout(); got != 1 {
		t.Errorf("default drop timeout = %v, want 1s", got)
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("bitrot=0.01, readerr=2e-2,writeerr=0.005,latency=0.1,spike=0.25,drop=0.05,timeout=2,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 9, BitRot: 0.01, ReadErr: 0.02, WriteErr: 0.005,
		Latency: 0.1, Spike: 0.25, Drop: 0.05, DropTimeout: 2}
	if *c != want {
		t.Errorf("ParseSpec = %+v, want %+v", *c, want)
	}
	if !c.Enabled() {
		t.Error("parsed config should be enabled")
	}

	if c, err := ParseSpec(""); c != nil || err != nil {
		t.Errorf("empty spec = %+v, %v; want nil, nil", c, err)
	}
	for _, bad := range []string{
		"bitrot", "bitrot=x", "bitrot=-1", "bitrot=1.5", "nope=1", "seed=abc",
		// Non-finite and unbounded durations would stall a run forever.
		"bitrot=nan", "spike=inf", "spike=1e300", "timeout=-inf", "spike=60.5",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if c, err := ParseSpec("latency=1,spike=60,timeout=60"); err != nil || c.Spike != maxSeconds || c.DropTimeout != maxSeconds {
		t.Errorf("ParseSpec at the cap = %+v, %v", c, err)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if (Config{Seed: 5, Spike: 1, DropTimeout: 2}).Enabled() {
		t.Error("rate-free config enabled")
	}
	if !(Config{ReadErr: 0.1}).Enabled() {
		t.Error("read-error config disabled")
	}
}

// BenchmarkHooksDisabled measures what a dormant injector costs on the
// storage hot path: every hook must be a nil check and nothing else.
// scripts/bench.sh records it to prove 0 allocs/op.
func BenchmarkHooksDisabled(b *testing.B) {
	var inj *Injector
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inj.ReadError() || inj.WriteError() || inj.ServerDrop() {
			b.Fatal("nil injector fired")
		}
		inj.Rot(buf)
		if inj.LatencySpike() != 0 {
			b.Fatal("nil injector spiked")
		}
	}
}

// BenchmarkHooksEnabled measures the armed hooks: a PRNG draw per
// decision, still allocation-free.
func BenchmarkHooksEnabled(b *testing.B) {
	inj := New(Config{Seed: 1, BitRot: 0.01, ReadErr: 0.01, WriteErr: 0.01, Latency: 0.01, Drop: 0.01})
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inj.ReadError()
		_ = inj.WriteError()
		_ = inj.ServerDrop()
		inj.Rot(buf)
		_ = inj.LatencySpike()
	}
}
