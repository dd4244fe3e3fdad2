package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
)

// badVectors are vectors no tree can hold: a NaN or infinite component,
// or finite components whose distance to any reference object overflows
// float32 (two of 3e38: valid JSON, so one /insert can send it).
func badVectors(dim int) map[string][]float32 {
	with := func(xs ...float32) []float32 {
		v := make([]float32, dim)
		copy(v, xs)
		return v
	}
	return map[string][]float32{
		"NaN":       with(float32(math.NaN())),
		"+Inf":      with(0, float32(math.Inf(1))),
		"-Inf":      with(0, 0, float32(math.Inf(-1))),
		"3e38 × 2":  with(3e38, 3e38),
		"-3e38 × 2": with(0, -3e38, -3e38),
	}
}

// An acknowledged insert is in the WAL, and every compaction must fold
// it into the trees: Insert refuses a vector they cannot hold before the
// log sees it, so the index keeps compacting and reopening.
func TestInsertRefusesOutOfRangeVector(t *testing.T) {
	ds := data.Generate(data.Config{Name: "bad", N: 400, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 5})
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(dir, ds.Vectors, ingestParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	for name, v := range badVectors(32) {
		if _, err := ix.Insert(v); !errors.Is(err, ErrBadVector) {
			t.Errorf("Insert of %s: %v, want ErrBadVector", name, err)
		}
	}
	if _, err := ix.Insert(ds.Vectors[7]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatalf("Compact after refused inserts: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(dir, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 401 {
		t.Fatalf("reopened with %d vectors, want 401", ix.Count())
	}
}

// Build refuses every vector Insert refuses, names it, and returns:
// reference selection used to relax its threshold forever against an
// infinite diameter estimate, and a vector of finite components far
// enough out may be picked as a reference, which puts every row's
// distance past float32.
func TestBuildRefusesNonFiniteComponent(t *testing.T) {
	ds := data.Generate(data.Config{Name: "bad", N: 300, Dim: 16, Clusters: 3, Lo: 0, Hi: 1, Seed: 6})
	for name, bad := range badVectors(16) {
		vectors := slices.Clone(ds.Vectors)
		vectors[42] = bad
		dir := t.TempDir()
		done := make(chan error, 1)
		go func() {
			ix, err := Build(dir, vectors, Params{Tau: 2, Omega: 8, M: 4, Alpha: 64, Seed: 1})
			if err == nil {
				ix.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadVector) || !strings.Contains(err.Error(), "vector 42:") {
				t.Errorf("Build with %s as vector 42: %v, want ErrBadVector naming vector 42", name, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("Build with %s as vector 42 has not returned in a minute", name)
		}
	}
}
