package main

import (
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/shard"
)

func TestBuildQueryInfoPipeline(t *testing.T) {
	tmp := t.TempDir()
	ds := data.SIFTLike(600, 1)
	queries := ds.PerturbedQueries(4, 0.01, 2)

	dataPath := filepath.Join(tmp, "d.fvecs")
	if err := data.WriteFvecs(dataPath, ds.Vectors); err != nil {
		t.Fatal(err)
	}
	qPath := filepath.Join(tmp, "q.fvecs")
	if err := data.WriteFvecs(qPath, queries); err != nil {
		t.Fatal(err)
	}
	indexDir := filepath.Join(tmp, "ix")

	if err := runBuild([]string{
		"-data", dataPath, "-index", indexDir,
		"-tau", "8", "-omega", "8", "-m", "5", "-alpha", "256", "-gamma", "64",
	}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := runInfo([]string{"-index", indexDir}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := runCheck([]string{indexDir}); err != nil {
		t.Fatalf("check: %v", err)
	}
	outPath := filepath.Join(tmp, "r.ivecs")
	if err := runQuery([]string{
		"-index", indexDir, "-queries", qPath, "-k", "5", "-out", outPath,
	}); err != nil {
		t.Fatalf("query: %v", err)
	}
	rows, err := data.ReadIvecs(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(rows[0]) != 5 {
		t.Fatalf("results shape = %dx%d", len(rows), len(rows[0]))
	}

	// Per-query tuning flags share the new options plumbing: the
	// override must be accepted on the already-built index, -stats must
	// print the work counters, and an inconsistent cascade must fail.
	if err := runQuery([]string{
		"-index", indexDir, "-queries", qPath, "-k", "5",
		"-alpha", "128", "-gamma", "32", "-ptolemaic", "-stats",
	}); err != nil {
		t.Fatalf("tuned query: %v", err)
	}
	if err := runQuery([]string{
		"-index", indexDir, "-queries", qPath, "-k", "5",
		"-alpha", "16", "-gamma", "64",
	}); err == nil {
		t.Fatal("widening cascade must fail")
	}
	if err := runQuery([]string{
		"-index", indexDir, "-queries", qPath, "-k", "5", "-alpha", "-5",
	}); err == nil {
		t.Fatal("negative -alpha must fail, not silently read as unset")
	}
}

// The same pipeline must work against a sharded layout: build with
// -shards, info prints the breakdown, query auto-detects the manifest.
func TestShardedPipeline(t *testing.T) {
	tmp := t.TempDir()
	ds := data.SIFTLike(600, 1)
	queries := ds.PerturbedQueries(4, 0.01, 2)

	dataPath := filepath.Join(tmp, "d.fvecs")
	if err := data.WriteFvecs(dataPath, ds.Vectors); err != nil {
		t.Fatal(err)
	}
	qPath := filepath.Join(tmp, "q.fvecs")
	if err := data.WriteFvecs(qPath, queries); err != nil {
		t.Fatal(err)
	}
	indexDir := filepath.Join(tmp, "ix")

	if err := runBuild([]string{
		"-data", dataPath, "-index", indexDir, "-shards", "4",
		"-tau", "8", "-omega", "8", "-m", "5", "-alpha", "256", "-gamma", "64",
	}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if !shard.IsSharded(indexDir) {
		t.Fatal("build -shards did not write a manifest layout")
	}
	if err := runInfo([]string{"-index", indexDir}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := runCheck([]string{indexDir}); err != nil {
		t.Fatalf("check: %v", err)
	}
	outPath := filepath.Join(tmp, "r.ivecs")
	if err := runQuery([]string{
		"-index", indexDir, "-queries", qPath, "-k", "5", "-out", outPath,
	}); err != nil {
		t.Fatalf("query: %v", err)
	}
	rows, err := data.ReadIvecs(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(rows[0]) != 5 {
		t.Fatalf("results shape = %dx%d", len(rows), len(rows[0]))
	}
}

func TestArgValidation(t *testing.T) {
	if err := runBuild([]string{}); err == nil {
		t.Error("build without args must fail")
	}
	if err := runQuery([]string{}); err == nil {
		t.Error("query without args must fail")
	}
	if err := runInfo([]string{}); err == nil {
		t.Error("info without args must fail")
	}
	if err := runCheck([]string{}); err == nil {
		t.Error("check without a directory must fail")
	}
	if err := runCheck([]string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("check of a missing index must fail")
	}
	if err := runBuild([]string{"-data", "/nonexistent.fvecs", "-index", t.TempDir()}); err == nil {
		t.Error("missing data file must fail")
	}
	if err := runInfo([]string{"-index", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing index must fail")
	}
}
