package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	errprop "github.com/scidata/errprop"
)

func TestWriteThenScoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "ds")
	if err := run([]string{"-write", ds, "-codec", "zfp", "-tol", "1e-2", "-samples", "512", "-chunk", "64"}); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "res.jsonl")
	sumPath := filepath.Join(dir, "sum.json")
	err := run([]string{
		"-manifest", filepath.Join(ds, "MANIFEST"), "-demo", "-format", "fp16",
		"-budget", "0.5", "-workers", "3",
		"-out", outPath, "-summary", sumPath, "-cursor-dir", filepath.Join(dir, "cur"),
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc summaryDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Samples != 512 || doc.Chunks != 8 || doc.Skipped != 0 {
		t.Fatalf("summary counters off: %+v", doc)
	}
	if doc.QuantBound <= 0 || doc.MaxBound < doc.QuantBound || doc.OverBudget != 0 {
		t.Fatalf("summary bound accounting off: %+v", doc)
	}

	lines, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(lines), "\n"); n != 8 {
		t.Fatalf("result log has %d lines, want 8", n)
	}
}

// TestScoreFP8Format: -format takes every format an artifact carries
// step tables for, fp8 included, and the summary reports its bound.
func TestScoreFP8Format(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "ds")
	if err := run([]string{"-write", ds, "-samples", "128", "-chunk", "64"}); err != nil {
		t.Fatal(err)
	}
	sumPath := filepath.Join(dir, "sum.json")
	if err := run([]string{"-manifest", filepath.Join(ds, "MANIFEST"), "-demo", "-format", "fp8e5m2", "-summary", sumPath}); err != nil {
		t.Fatalf("score -format fp8e5m2: %v", err)
	}
	raw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc summaryDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Samples != 128 || doc.QuantBound <= 0 {
		t.Fatalf("fp8e5m2 summary off: %+v", doc)
	}
}

// TestScoreFromArtifactByteIdenticalSummary: -model pointed at a
// compiled artifact cold-starts the scorer and writes a summary and
// result log byte-identical to scoring the saved network at the
// artifact's format — even when -format disagrees (the artifact wins).
func TestScoreFromArtifactByteIdenticalSummary(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "ds")
	if err := run([]string{"-write", ds, "-codec", "sz", "-tol", "1e-2", "-samples", "256", "-chunk", "64"}); err != nil {
		t.Fatal(err)
	}
	net, err := errprop.MLPSpec("demo", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "demo.model")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	art, err := errprop.BuildArtifact(net, errprop.INT8)
	if err != nil {
		t.Fatal(err)
	}
	aotPath := filepath.Join(dir, "demo.aot")
	if err := errprop.WriteArtifactFile(aotPath, art); err != nil {
		t.Fatal(err)
	}

	score := func(model, format, tag string) ([]byte, []byte) {
		outPath := filepath.Join(dir, tag+".jsonl")
		sumPath := filepath.Join(dir, tag+".json")
		err := run([]string{
			"-manifest", filepath.Join(ds, "MANIFEST"), "-model", model, "-format", format,
			"-budget", "0.5", "-workers", "2", "-out", outPath, "-summary", sumPath,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sum, err := os.ReadFile(sumPath)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return sum, lines
	}
	refSum, refLines := score(modelPath, "int8", "spec")
	gotSum, gotLines := score(aotPath, "fp16", "artifact") // -format contradicts; artifact's int8 wins
	if string(gotSum) != string(refSum) {
		t.Fatalf("artifact summary not byte-identical:\n got %s\n ref %s", gotSum, refSum)
	}
	if string(gotLines) != string(refLines) {
		t.Fatal("artifact result log not byte-identical to spec path")
	}

	// A corrupt artifact is a typed refusal naming the file.
	raw, err := os.ReadFile(aotPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(aotPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-manifest", filepath.Join(ds, "MANIFEST"), "-model", aotPath})
	if err == nil {
		t.Fatal("scored a corrupt artifact")
	}
	if !strings.Contains(err.Error(), aotPath) {
		t.Fatalf("refusal does not name the artifact: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("accepted no mode")
	}
	if err := run([]string{"-manifest", "x"}); err == nil {
		t.Fatal("accepted scoring without a model")
	}
	if err := run([]string{"-manifest", "x", "-demo", "-model", "y"}); err == nil {
		t.Fatal("accepted -demo and -model together")
	}
	if err := run([]string{"-manifest", "x", "-demo", "-format", "fp13"}); err == nil || !strings.Contains(err.Error(), `"fp13"`) {
		t.Fatalf("unknown format: %v, want a refusal naming it", err)
	}
	if err := run([]string{"-write", t.TempDir(), "-samples", "-1"}); err == nil {
		t.Fatal("accepted negative sample count")
	}
	if err := run([]string{"-write", t.TempDir(), "-codec", "nope"}); err == nil {
		t.Fatal("accepted unknown codec")
	}
}
