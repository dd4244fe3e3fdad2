package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestParsePreset(t *testing.T) {
	for _, name := range []string{"exact", "balanced", "fast", "auto"} {
		p, err := ParsePreset(name)
		if err != nil || string(p) != name {
			t.Fatalf("ParsePreset(%q) = %q, %v", name, p, err)
		}
	}
	for _, name := range []string{"", "Exact", "fastest", "slo"} {
		if _, err := ParsePreset(name); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("ParsePreset(%q) err = %v, want ErrBadOptions", name, err)
		}
	}
}

func TestPresetOptionsTable(t *testing.T) {
	built := Params{Alpha: 4096, Beta: 4096, Gamma: 1024}
	cases := []struct {
		preset       Preset
		k            int
		alpha, gamma int
	}{
		{PresetBalanced, 10, 0, 0},
		{PresetFast, 10, 1024, 256},     // quarter of built
		{PresetExact, 10, 16384, 16384}, // 4x built alpha, gamma = alpha
	}
	for _, c := range cases {
		o, err := c.preset.Options(built, c.k)
		if err != nil {
			t.Fatalf("%s.Options: %v", c.preset, err)
		}
		if o.Alpha != c.alpha || o.Gamma != c.gamma {
			t.Fatalf("%s resolved to alpha=%d gamma=%d, want %d/%d",
				c.preset, o.Alpha, o.Gamma, c.alpha, c.gamma)
		}
	}
	// Auto has no fixed expansion.
	if _, err := PresetAuto.Options(built, 10); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("auto.Options err = %v, want ErrBadOptions", err)
	}
	// Fast floors at 64/16 on a small built cascade...
	o, err := PresetFast.Options(Params{Alpha: 128, Beta: 128, Gamma: 32}, 10)
	if err != nil || o.Alpha != 64 || o.Gamma != 16 {
		t.Fatalf("fast on small cascade = %+v, %v; want alpha=64 gamma=16", o, err)
	}
	// ...leaves a knob it cannot lower unset, down to the zero options
	// on a cascade already below its floors...
	o, _ = PresetFast.Options(Params{Alpha: 48, Beta: 48, Gamma: 12}, 10)
	if o != (SearchOptions{}) {
		t.Fatalf("fast below its floors = %+v, want the zero options", o)
	}
	// ...and clamps up to k, so γ = max(32/4, 16, 50) = 50 would widen
	// the built 32 and stays unset.
	o, _ = PresetFast.Options(Params{Alpha: 128, Beta: 128, Gamma: 32}, 50)
	if o.Alpha != 64 || o.Gamma != 0 {
		t.Fatalf("fast at k=50 = %+v, want alpha=64 and gamma unset", o)
	}
}

// The fast preset never runs a wider α, β or γ than balanced, over built
// cascades at, below and around its floors and ks up to past the built
// α, and an α or γ it sets is one it lowered.
func TestPresetFastNeverWiderThanBalanced(t *testing.T) {
	for _, built := range []Params{
		{Alpha: 4096, Beta: 4096, Gamma: 1024},
		{Alpha: 256, Beta: 256, Gamma: 64},
		{Alpha: 128, Beta: 128, Gamma: 32},
		{Alpha: 64, Beta: 64, Gamma: 16},
		{Alpha: 48, Beta: 48, Gamma: 12},
		{Alpha: 100, Beta: 100, Gamma: 100},
		{Alpha: 1, Beta: 1, Gamma: 1},
		{Alpha: 256, Beta: 256, Gamma: 64, UsePtolemaic: true},
		{Alpha: 1024, Beta: 512, Gamma: 128, UsePtolemaic: true},
		{Alpha: 4096, Beta: 512, Gamma: 128, UsePtolemaic: true},
	} {
		for _, k := range []int{1, 10, built.Gamma, built.Alpha - 1, built.Alpha, built.Alpha + 44} {
			if k < 1 {
				continue
			}
			name := fmt.Sprintf("built %d/%d/%d ptolemaic=%v, k=%d", built.Alpha, built.Beta, built.Gamma, built.UsePtolemaic, k)
			o, err := PresetFast.Options(built, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fast, err := built.planFor(k, o)
			if err != nil {
				t.Fatalf("%s: fast options %+v do not plan: %v", name, o, err)
			}
			balanced, _ := built.planFor(k, SearchOptions{})
			if fast.alpha > balanced.alpha || fast.beta > balanced.beta || fast.gamma > balanced.gamma {
				t.Errorf("%s: fast runs %d/%d/%d, wider than balanced's %d/%d/%d", name, fast.alpha, fast.beta, fast.gamma, balanced.alpha, balanced.beta, balanced.gamma)
			}
			if o.Alpha != 0 && o.Alpha >= balanced.alpha || o.Gamma != 0 && o.Gamma >= balanced.gamma {
				t.Errorf("%s: fast sets %+v, which lowers nothing below balanced's %d/%d", name, o, balanced.alpha, balanced.gamma)
			}
		}
	}
}

// The exact preset must dominate quality: its candidate set contains at
// least as many refined candidates as the built defaults.
func TestPresetExactWidest(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1}
	ix, _, queries := buildSmall(t, 1500, p)
	const k = 10
	exact, err := PresetExact.Options(ix.Params(), k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, stBal, err := ix.Query(ctx, queries[0], k, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, stEx, err := ix.Query(ctx, queries[0], k, exact)
	if err != nil {
		t.Fatal(err)
	}
	if stEx.Candidates < stBal.Candidates {
		t.Fatalf("exact refined %d candidates < balanced %d", stEx.Candidates, stBal.Candidates)
	}
	if stEx.Alpha != min(p.Alpha*exactFactor, maxKnob) {
		t.Fatalf("exact alpha = %d, want %d", stEx.Alpha, p.Alpha*exactFactor)
	}
}
