package fault

import "testing"

// FuzzParseSpec asserts ParseSpec's contract on arbitrary spec strings
// (the CLI's -faults flag and a job spec's faults field are both
// untrusted): it never panics, and every Config it accepts has finite
// fields, probabilities in [0,1], and durations in [0, maxSeconds].
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"bitrot=0.01, readerr=2e-2,writeerr=0.005,latency=0.1,spike=0.25,drop=0.05,timeout=2,seed=9",
		"latency=1,spike=60",
		"spike=inf",
		"bitrot=nan",
		"timeout=-inf",
		"spike=1e300",
		"drop=1,timeout=0x1p5",
		"seed=18446744073709551615",
		"bitrot",
		",,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil || c == nil {
			return
		}
		for _, fld := range []struct {
			name   string
			v, max float64
		}{
			{"bitrot", c.BitRot, 1}, {"readerr", c.ReadErr, 1}, {"writeerr", c.WriteErr, 1},
			{"latency", c.Latency, 1}, {"drop", c.Drop, 1},
			{"spike", float64(c.Spike), maxSeconds}, {"timeout", float64(c.DropTimeout), maxSeconds},
		} {
			// Written so that NaN fails too.
			if !(fld.v >= 0 && fld.v <= fld.max) {
				t.Fatalf("ParseSpec(%q): %s = %v outside [0,%v]", spec, fld.name, fld.v, fld.max)
			}
		}
	})
}
