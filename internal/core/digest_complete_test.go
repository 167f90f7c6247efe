package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// digestExempt lists the AppConfig fields CanonicalDigest deliberately
// leaves out, by field path, each with the reason it may.
var digestExempt = map[string]string{
	"KernelWorkers":  "caps render/encode parallelism; output bytes are identical at any value",
	"Heat.Workers":   "deprecated and ignored by the solver",
	"Render.Workers": "caps render parallelism; output bytes are identical at any value",
	"Telemetry":      "consumers observe a run and never alter its output",
	"NewSimulator":   "extension point hashed by presence only; the caller keys its identity",
	"Store":          "extension point hashed by presence only; the caller keys its identity",
}

// TestCanonicalDigestComplete walks AppConfig by reflection, perturbs
// every settable field in turn, and asserts the digest changes: a field
// the canonical form forgets would let two different runs share one
// cached result. A new field fails here until it is hashed or added to
// digestExempt with its reason.
func TestCanonicalDigestComplete(t *testing.T) {
	cfg := DefaultAppConfig()
	// Non-default values everywhere a default would mask a change:
	// faults must be enabled to be hashed, and the retry policy's zero
	// values are replaced by its defaults before hashing.
	cfg.Faults = &fault.Config{Seed: 3, BitRot: 0.1, ReadErr: 0.1, WriteErr: 0.1,
		Latency: 0.1, Spike: 0.25, Drop: 0.1, DropTimeout: 2}
	cfg.Retry = RetryPolicy{MaxAttempts: 5, Backoff: 0.75}
	cfg.CinemaVariants = 2
	w := digestWalker{t: t, cfg: &cfg, base: cfg.CanonicalDigest(), seen: map[string]bool{}}
	w.walk("", reflect.ValueOf(&cfg).Elem())
	if got := cfg.CanonicalDigest(); got != w.base {
		t.Fatal("walker did not restore the config it perturbed")
	}
	for path := range digestExempt {
		if !w.seen[path] {
			t.Errorf("digestExempt names %s, which AppConfig no longer has", path)
		}
	}
}

type digestWalker struct {
	t    *testing.T
	cfg  *AppConfig
	base string
	seen map[string]bool
}

// check perturbs v with set, asserts the digest moved, and restores v.
func (w *digestWalker) check(path string, v reflect.Value, set func()) {
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	set()
	if w.cfg.CanonicalDigest() == w.base {
		w.t.Errorf("changing %s leaves CanonicalDigest unchanged", path)
	}
	v.Set(old)
}

func (w *digestWalker) walk(path string, v reflect.Value) {
	w.seen[path] = true
	if _, ok := digestExempt[path]; ok {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				w.walk(join(path, f.Name), v.Field(i))
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			w.check(path+" (set)", v, func() { v.Set(reflect.New(v.Type().Elem())) })
			return
		}
		w.check(path+" (clear)", v, func() { v.Set(reflect.Zero(v.Type())) })
		w.walk(path, v.Elem())
	case reflect.Slice:
		w.check(path+" (grow)", v, func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := 0; i < v.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Bool:
		w.check(path, v, func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.check(path, v, func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.check(path, v, func() { v.SetUint(v.Uint() + 1) })
	case reflect.Float32, reflect.Float64:
		w.check(path, v, func() {
			if f := v.Float(); f == 0 {
				v.SetFloat(1)
			} else {
				v.SetFloat(3 * f)
			}
		})
	default:
		w.t.Errorf("%s: cannot perturb a %s field; hash it or exempt it", path, v.Kind())
	}
}

func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}
