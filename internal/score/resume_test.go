package score

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/numfmt"
)

var errKilled = errors.New("simulated kill")

// runToLog scores the dataset streaming results into a fresh log at
// logPath, optionally with a cursor dir and a kill-switch that aborts
// after `kill` commits (kill <= 0 scores to completion).
func runToLog(t *testing.T, dir string, man *Manifest, logPath, cursorDir string, workers, kill int) (*Result, error) {
	t.Helper()
	log, err := OpenResultLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := Config{
		Workers:         workers,
		Batch:           16,
		Dir:             dir,
		CursorDir:       cursorDir,
		CheckpointEvery: 3,
		Results:         log,
	}
	if kill > 0 {
		commits := 0
		cfg.OnChunk = func(*ChunkResult) error {
			commits++
			if commits >= kill {
				return errKilled
			}
			return nil
		}
	}
	return scoreNet(t, testNet(t, man.Features), numfmt.FP16, man, cfg)
}

// TestKillResumeBitIdentical is the crash-safety contract: a run killed
// mid-stream and resumed from its cursor produces a byte-identical
// result log and a bit-identical aggregate versus an uninterrupted run —
// across codecs and worker counts, even when the crashed, resumed and
// reference runs all used different worker counts.
func TestKillResumeBitIdentical(t *testing.T) {
	const features = 5
	for _, tc := range []struct {
		codec              string
		refW, crashW, resW int
		kill               int
	}{
		{"sz", 1, 3, 2, 4},
		{"sz", 2, 1, 4, 7},
		{"zfp", 1, 4, 1, 5},
		{"zfp", 3, 2, 3, 8},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			dir, man := writeTestDataset(t, tc.codec, 1e-3, features, 320, 32)
			if len(man.Chunks) != 10 {
				t.Fatalf("want 10 chunks, got %d", len(man.Chunks))
			}
			work := t.TempDir()
			refLog := filepath.Join(work, "ref.jsonl")
			ref, err := runToLog(t, dir, man, refLog, "", tc.refW, 0)
			if err != nil {
				t.Fatal(err)
			}

			curDir := filepath.Join(work, "cursors")
			if err := os.MkdirAll(curDir, 0o755); err != nil {
				t.Fatal(err)
			}
			resLog := filepath.Join(work, "res.jsonl")
			if _, err := runToLog(t, dir, man, resLog, curDir, tc.crashW, tc.kill); !errors.Is(err, errKilled) {
				t.Fatalf("crash run: got %v, want the simulated kill", err)
			}
			// The crashed run's log holds lines past the last durable
			// cursor — exactly what resume must truncate away.
			res, err := runToLog(t, dir, man, resLog, curDir, tc.resW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed {
				t.Fatal("resume did not pick up the cursor")
			}
			if res.ResumedFrom <= 0 || res.ResumedFrom >= int64(len(man.Chunks)) {
				t.Fatalf("resumed from %d, want mid-stream", res.ResumedFrom)
			}

			refBytes, err := os.ReadFile(refLog)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := os.ReadFile(resLog)
			if err != nil {
				t.Fatal(err)
			}
			if string(refBytes) != string(gotBytes) {
				t.Fatalf("resumed result log differs from uninterrupted run's\nref %d bytes, got %d bytes", len(refBytes), len(gotBytes))
			}
			assertSameAggregate(t, res.Agg, ref.Agg)

			// The resumed run's freshly committed chunks match the
			// reference's tail bit for bit.
			tail := ref.Chunks[res.ResumedFrom:]
			if len(res.Chunks) != len(tail) {
				t.Fatalf("resume committed %d chunks, want %d", len(res.Chunks), len(tail))
			}
			for i := range tail {
				if !bitsEqual(res.Chunks[i].Sum, tail[i].Sum) {
					t.Fatalf("resumed chunk %d differs from reference", res.Chunks[i].Index)
				}
			}
		})
	}
}

func assertSameAggregate(t *testing.T, got, want *Aggregate) {
	t.Helper()
	if got.Chunks != want.Chunks || got.Skipped != want.Skipped || got.Samples != want.Samples ||
		got.Elems != want.Elems || got.OverBudget != want.OverBudget ||
		got.StoredBytes != want.StoredBytes || got.RawBytes != want.RawBytes ||
		got.SimRead != want.SimRead || got.SimDecode != want.SimDecode || got.SimExec != want.SimExec ||
		got.Retries != want.Retries {
		t.Fatalf("aggregate counters differ:\n got %+v\nwant %+v", got, want)
	}
	if !bitsEqual([]float64{got.BoundWeighted, got.MaxBound}, []float64{want.BoundWeighted, want.MaxBound}) ||
		!bitsEqual(got.Sum, want.Sum) || !bitsEqual(got.Min, want.Min) || !bitsEqual(got.Max, want.Max) {
		t.Fatalf("aggregate QoI differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestResumeRejectsForeignCursor: a cursor directory written for a
// different manifest must be refused, not silently rescored.
func TestResumeRejectsForeignCursor(t *testing.T) {
	const features = 4
	dirA, manA := writeTestDataset(t, "sz", 1e-3, features, 96, 16)
	dirB, manB := writeTestDataset(t, "sz", 1e-2, features, 96, 16)
	work := t.TempDir()
	curDir := filepath.Join(work, "cursors")
	if err := os.MkdirAll(curDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := runToLog(t, dirA, manA, filepath.Join(work, "a.jsonl"), curDir, 2, 4); !errors.Is(err, errKilled) {
		t.Fatalf("crash run: %v", err)
	}
	_, err := scoreNet(t, testNet(t, features), numfmt.FP32, manB, Config{Dir: dirB, CursorDir: curDir})
	if err == nil {
		t.Fatal("accepted a cursor from a different manifest")
	}
}

// TestResumeAfterCompletion: resuming a finished run rescans nothing and
// returns the recorded aggregate unchanged.
func TestResumeAfterCompletion(t *testing.T) {
	const features = 4
	dir, man := writeTestDataset(t, "zfp", 1e-2, features, 96, 16)
	work := t.TempDir()
	curDir := filepath.Join(work, "cursors")
	if err := os.MkdirAll(curDir, 0o755); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(work, "log.jsonl")
	ref, err := runToLog(t, dir, man, logPath, curDir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	again, err := runToLog(t, dir, man, logPath, curDir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ResumedFrom != int64(len(man.Chunks)) {
		t.Fatalf("second run resumed=%v from %d, want resumed at end", again.Resumed, again.ResumedFrom)
	}
	if len(again.Chunks) != 0 {
		t.Fatalf("second run re-committed %d chunks", len(again.Chunks))
	}
	assertSameAggregate(t, again.Agg, ref.Agg)
	gotBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Fatal("result log changed on no-op resume")
	}
}

// TestFreshRunDiscardsStaleLog: without a cursor, an existing result log
// from a cursorless crashed run is truncated, not appended to.
func TestFreshRunDiscardsStaleLog(t *testing.T) {
	const features = 4
	dir, man := writeTestDataset(t, "sz", 1e-3, features, 64, 16)
	work := t.TempDir()
	logPath := filepath.Join(work, "log.jsonl")
	if err := os.WriteFile(logPath, []byte("{\"stale\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	curDir := filepath.Join(work, "cursors")
	if err := os.MkdirAll(curDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := runToLog(t, dir, man, logPath, curDir, 2, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || strings.Contains(string(raw), "stale") {
		t.Fatalf("stale line survived a fresh run (%d bytes)", len(raw))
	}
}
