package checkpoint_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/scidata/errprop/internal/checkpoint"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// harness bundles a PSN MLP trainer with a detrand-driven batch stream,
// the shape of a real training loop.
type harness struct {
	tr  *nn.Trainer
	rng *detrand.Stream
}

func newHarness(t *testing.T, optKind string) *harness {
	t.Helper()
	spec := nn.MLPSpec("ck-"+optKind, []int{5, 10, 10, 2}, nn.ActTanh, true)
	net, err := spec.Build(21)
	if err != nil {
		t.Fatal(err)
	}
	var opt nn.Optimizer
	switch optKind {
	case "sgd":
		opt = nn.NewSGD(0.05, 0.9, 1e-4)
	case "adam":
		opt = nn.NewAdam(1e-3)
	default:
		t.Fatalf("unknown optimizer %q", optKind)
	}
	tr, err := nn.NewTrainer(net, opt, nn.TrainConfig{Workers: 2, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{tr: tr, rng: detrand.New(77)}
}

// step draws one batch from the harness RNG and trains on it. All data
// order flows through the RNG, so resume correctness depends on the
// checkpoint restoring the stream position exactly.
func (h *harness) step() {
	const in, out, cols = 5, 2, 11
	x := tensor.NewMatrix(in, cols)
	y := tensor.NewMatrix(out, cols)
	for i := range x.Data {
		x.Data[i] = h.rng.Float64()*2 - 1
	}
	for i := range y.Data {
		y.Data[i] = h.rng.Float64()*2 - 1
	}
	h.tr.StepMSE(x, y, 1e-3)
}

func (h *harness) flat() []float64 {
	var out []float64
	for _, p := range h.tr.Net().Params() {
		out = append(out, p.Data...)
	}
	return out
}

func captureState(h *harness) *checkpoint.State {
	st := &checkpoint.State{Trainer: h.tr.CaptureState()}
	st.RNGSeed, st.RNGCount = h.rng.State()
	return st
}

// TestEncodeDecodeRoundTrip: the frame round-trips every field exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := newHarness(t, "adam")
	for i := 0; i < 3; i++ {
		h.step()
	}
	st := captureState(h)
	raw, err := checkpoint.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step() != st.Step() || got.RNGSeed != st.RNGSeed || got.RNGCount != st.RNGCount {
		t.Fatalf("scalar state drift: %+v vs %+v", got, st)
	}
	if got.Trainer.Opt.Kind != "adam" || got.Trainer.Opt.Step != st.Trainer.Opt.Step {
		t.Fatalf("optimizer state drift: %+v", got.Trainer.Opt)
	}
	if len(got.Trainer.Params) != len(st.Trainer.Params) {
		t.Fatal("parameter count drift")
	}
	for i := range st.Trainer.Params {
		for j := range st.Trainer.Params[i] {
			if got.Trainer.Params[i][j] != st.Trainer.Params[i][j] {
				t.Fatalf("param %d[%d] drift", i, j)
			}
		}
	}
	for i := range st.Trainer.Sigmas {
		if got.Trainer.Sigmas[i] != st.Trainer.Sigmas[i] {
			t.Fatalf("sigma %d drift", i)
		}
	}
	for i := range st.Trainer.IterVecs {
		for j := range st.Trainer.IterVecs[i] {
			if got.Trainer.IterVecs[i][j] != st.Trainer.IterVecs[i][j] {
				t.Fatalf("iter vec %d[%d] drift", i, j)
			}
		}
	}
	for i := range st.Trainer.Opt.Slots {
		for j := range st.Trainer.Opt.Slots[i] {
			if got.Trainer.Opt.Slots[i][j] != st.Trainer.Opt.Slots[i][j] {
				t.Fatalf("slot %d[%d] drift", i, j)
			}
		}
	}
}

// TestKillAndResumeBitIdentical is the acceptance criterion: train with
// periodic checkpoints, "kill" the run (discard the process state), build
// a fresh harness, resume from disk, finish — and compare against an
// uninterrupted reference run with exact float equality, for both
// SGD-momentum and Adam.
func TestKillAndResumeBitIdentical(t *testing.T) {
	const every, kill, total = 4, 10, 25
	for _, kind := range []string{"sgd", "adam"} {
		t.Run(kind, func(t *testing.T) {
			// Reference: uninterrupted.
			ref := newHarness(t, kind)
			for s := 0; s < total; s++ {
				ref.step()
			}

			// Interrupted: checkpoint every `every` steps, die at `kill`.
			dir := t.TempDir()
			loop := &checkpoint.Loop{Dir: dir, Every: every, Keep: 2}
			h1 := newHarness(t, kind)
			if start, err := loop.Resume(h1.tr, h1.rng); err != nil || start != 0 {
				t.Fatalf("fresh Resume = (%d, %v), want (0, nil)", start, err)
			}
			for s := 0; s < kill; s++ {
				h1.step()
				if err := loop.AfterStep(h1.tr, h1.rng); err != nil {
					t.Fatal(err)
				}
			}
			// h1 is now dead; everything it held in memory is gone.

			// Resumed: fresh harness, state comes only from disk.
			h2 := newHarness(t, kind)
			start, err := loop.Resume(h2.tr, h2.rng)
			if err != nil {
				t.Fatal(err)
			}
			wantStart := int64(kill - kill%every)
			if start != wantStart {
				t.Fatalf("resumed at step %d, want %d (last multiple of %d before kill)", start, wantStart, every)
			}
			if h2.tr.Steps() != wantStart {
				t.Fatalf("trainer Steps() %d != resume step %d", h2.tr.Steps(), start)
			}
			for s := start; s < total; s++ {
				h2.step()
				if err := loop.AfterStep(h2.tr, h2.rng); err != nil {
					t.Fatal(err)
				}
			}

			a, b := ref.flat(), h2.flat()
			if len(a) != len(b) {
				t.Fatalf("parameter count mismatch %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: resumed run diverged from uninterrupted run at flat index %d: %v != %v", kind, i, b[i], a[i])
				}
			}
		})
	}
}

// TestLoadLatestSkipsDamaged: crash safety must not depend on the last
// write surviving — a torn newest checkpoint falls back to the previous
// good one.
func TestLoadLatestSkipsDamaged(t *testing.T) {
	h := newHarness(t, "sgd")
	dir := t.TempDir()
	h.step()
	if _, err := checkpoint.Save(dir, captureState(h)); err != nil {
		t.Fatal(err)
	}
	goodStep := h.tr.Steps()
	h.step()
	p2, err := checkpoint.Save(dir, captureState(h))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest file.
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest with damaged newest: %v", err)
	}
	if st.Step() != goodStep {
		t.Fatalf("fell back to step %d, want %d", st.Step(), goodStep)
	}
	if filepath.Base(path) != checkpoint.FileName(goodStep) {
		t.Fatalf("fell back to %s", path)
	}

	// Damage the older one too: now there is no usable checkpoint.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.LoadLatest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("all-damaged dir: got %v, want ErrNotExist", err)
	}
}

// TestDecodeTypedErrors pins the trichotomy contract on the decoder.
func TestDecodeTypedErrors(t *testing.T) {
	h := newHarness(t, "adam")
	h.step()
	raw, err := checkpoint.Encode(captureState(h))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, 12, len(raw) / 3, len(raw) - 1} {
		if _, err := checkpoint.Decode(raw[:cut]); !integrity.IsIntegrityError(err) {
			t.Fatalf("truncation to %d: got %v, want typed integrity error", cut, err)
		}
	}
	for _, i := range []int{0, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x80
		st, err := checkpoint.Decode(mut)
		if err == nil {
			// Acceptable only if bit-identical (impossible for a real
			// flip under CRC32C, but state the trichotomy).
			t.Fatalf("byte %d flip decoded silently: %+v", i, st)
		}
		if !integrity.IsIntegrityError(err) {
			t.Fatalf("byte %d flip: untyped error %v", i, err)
		}
	}
	// Bytes after the declared body are damage too, not padding.
	if _, err := checkpoint.Decode(append(append([]byte(nil), raw...), 0, 0)); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("2 trailing bytes: got %v, want ErrCorrupt", err)
	}
}

// TestSaveLeavesNoTempFiles: a successful save leaves exactly the
// canonical files behind.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	h := newHarness(t, "sgd")
	h.step()
	dir := t.TempDir()
	if _, err := checkpoint.Save(dir, captureState(h)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != checkpoint.FileName(h.tr.Steps()) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("unexpected directory contents %v", names)
	}
}

// TestPruneKeepsNewest verifies retention.
func TestPruneKeepsNewest(t *testing.T) {
	h := newHarness(t, "sgd")
	dir := t.TempDir()
	loop := &checkpoint.Loop{Dir: dir, Every: 1, Keep: 2}
	for i := 0; i < 5; i++ {
		h.step()
		if err := loop.AfterStep(h.tr, h.rng); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d checkpoints, want 2: %v", len(paths), paths)
	}
	if filepath.Base(paths[0]) != checkpoint.FileName(5) || filepath.Base(paths[1]) != checkpoint.FileName(4) {
		t.Fatalf("kept wrong checkpoints: %v", paths)
	}
}

// FuzzDecodeCheckpoint drives the checkpoint decoder with arbitrary
// bytes: it must only ever return (state, nil) or a typed error — no
// panics, no absurd allocations.
func FuzzDecodeCheckpoint(f *testing.F) {
	h := &harness{}
	spec := nn.MLPSpec("fz", []int{5, 4, 2}, nn.ActTanh, true)
	net, err := spec.Build(1)
	if err != nil {
		f.Fatal(err)
	}
	tr, err := nn.NewTrainer(net, nn.NewAdam(1e-3), nn.TrainConfig{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	h.tr, h.rng = tr, detrand.New(1)
	h.step()
	raw, err := checkpoint.Encode(captureState(h))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte("ERRPROPCK1"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := checkpoint.Decode(blob)
		if err != nil {
			if !integrity.IsIntegrityError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		n := 0
		for _, p := range st.Trainer.Params {
			n += len(p)
		}
		if n > 1<<24 {
			t.Fatalf("suspiciously large decode: %d parameter values", n)
		}
	})
}

// TestLoadLatestAndPruneMixedDir drives recovery and retention over a
// realistic post-crash directory: intact checkpoints of several ages,
// a torn newest file, a bit-rotted mid-age file, leftover temp files
// from interrupted atomic saves, and unrelated files — LoadLatest must
// land on the newest *intact* checkpoint and Prune must touch only
// canonical checkpoint names.
func TestLoadLatestAndPruneMixedDir(t *testing.T) {
	h := newHarness(t, "adam")
	dir := t.TempDir()

	// Four real checkpoints at increasing steps.
	var paths []string
	var steps []int64
	for i := 0; i < 4; i++ {
		h.step()
		p, err := checkpoint.Save(dir, captureState(h))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		steps = append(steps, h.tr.Steps())
	}
	// Newest: torn mid-write (truncated). Second-oldest: bit rot.
	raw, err := os.ReadFile(paths[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[3], raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	rot, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	rot[len(rot)/3] ^= 0x08
	if err := os.WriteFile(paths[1], rot, 0o644); err != nil {
		t.Fatal(err)
	}
	// Clutter: an interrupted save's temp file, an unrelated file, a
	// subdirectory shaped like a checkpoint name.
	for _, name := range []string{checkpoint.FileName(99) + ".tmp123", "NOTES.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, checkpoint.FileName(1000)), 0o755); err != nil {
		t.Fatal(err)
	}

	// List sees exactly the canonical regular files, newest first.
	listed, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 4 {
		t.Fatalf("List found %d entries, want the 4 checkpoints: %v", len(listed), listed)
	}

	// LoadLatest skips the torn newest and lands on the intact third.
	st, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step() != steps[2] || filepath.Base(path) != checkpoint.FileName(steps[2]) {
		t.Fatalf("recovered step %d from %s, want step %d", st.Step(), path, steps[2])
	}

	// Prune to 2 removes the two oldest canonical files (damaged or not)
	// and nothing else.
	if err := checkpoint.Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	left, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("prune kept %d, want 2: %v", len(left), left)
	}
	if filepath.Base(left[0]) != checkpoint.FileName(steps[3]) || filepath.Base(left[1]) != checkpoint.FileName(steps[2]) {
		t.Fatalf("prune kept wrong files: %v", left)
	}
	for _, name := range []string{checkpoint.FileName(99) + ".tmp123", "NOTES.txt", checkpoint.FileName(1000)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("prune touched non-checkpoint entry %s: %v", name, err)
		}
	}

	// After pruning, recovery still works from what remains (the torn
	// newest survives pruning but LoadLatest still skips it).
	st2, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Step() != steps[2] {
		t.Fatalf("post-prune recovery landed on step %d, want %d", st2.Step(), steps[2])
	}
}
