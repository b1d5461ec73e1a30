// Package checkpoint provides crash-safe, bit-exact training
// checkpoints. A checkpoint captures everything the next optimizer step
// depends on — parameter values, optimizer moments, PSN sigma state
// (estimates and power-iteration warm-start vectors), the data-order RNG
// position, and the step counter — so a run killed at any point and
// resumed from its last checkpoint produces a weight trajectory exactly
// equal (==, not approximately) to the uninterrupted run.
//
// Durability comes from internal/integrity: the body is stored in its
// checksummed frame, so damaged bytes decode to a typed integrity error,
// never to silently wrong training state; checkpoints are numbered
// generations (step-<step>.ckpt) written atomically, so a crash mid-save
// leaves the old checkpoint set or the new one; and LoadLatest recovers
// from the newest intact one.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
)

// Typed sentinels, shared with the rest of the fault path.
var (
	// ErrCorrupt aliases integrity.ErrCorrupt.
	ErrCorrupt = integrity.ErrCorrupt
	// ErrTruncated aliases integrity.ErrTruncated.
	ErrTruncated = integrity.ErrTruncated
)

// State is the full resumable training state.
type State struct {
	// Trainer is the nn-level snapshot: step counter, parameters, sigma
	// state, optimizer moments.
	Trainer *nn.TrainerState
	// RNGSeed/RNGCount pin the data-order RNG (detrand.Stream) position,
	// so the resumed run sees the same batches in the same order.
	RNGSeed, RNGCount uint64
}

// Step reports the step count the checkpoint was captured at.
func (s *State) Step() int64 { return s.Trainer.Step }

const (
	magic = "ERRPROPCK1"
	// maxBody caps the declared body length (1 GiB) so a corrupt frame
	// cannot size an absurd allocation.
	maxBody = 1 << 30
	// Ext is the checkpoint file extension.
	Ext = ".ckpt"
)

// generations names checkpoint files step-<step as %012d>.ckpt.
var generations = integrity.Generations{Prefix: "step-", Ext: Ext}

// Encode serializes st into its integrity frame.
//
//errprop:deterministic the frame is a pure function of the state, so checksums are reproducible
func Encode(st *State) ([]byte, error) {
	if st == nil || st.Trainer == nil {
		return nil, fmt.Errorf("checkpoint: nil state")
	}
	var b bytes.Buffer
	w := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	vec := func(v []float64) {
		w(uint32(len(v)))
		for _, x := range v {
			w(x)
		}
	}
	tr := st.Trainer
	w(uint64(tr.Step))
	w(st.RNGSeed)
	w(st.RNGCount)
	kind := tr.Opt.Kind
	if len(kind) > 255 {
		return nil, fmt.Errorf("checkpoint: optimizer kind %q too long", kind)
	}
	w(uint8(len(kind)))
	b.WriteString(kind)
	w(uint64(tr.Opt.Step))
	w(uint32(len(tr.Params)))
	for _, p := range tr.Params {
		vec(p)
	}
	vec(tr.Sigmas)
	w(uint32(len(tr.IterVecs)))
	for _, v := range tr.IterVecs {
		vec(v)
	}
	w(uint32(len(tr.Opt.Slots)))
	for _, s := range tr.Opt.Slots {
		vec(s)
	}
	return integrity.Frame(magic, b.Bytes()), nil
}

// Decode parses a checkpoint frame. Damage surfaces as an error wrapping
// ErrCorrupt or ErrTruncated; Decode never panics and never returns a
// partially-filled state without an error.
//
//errprop:deterministic
func Decode(raw []byte) (*State, error) {
	_, body, _, err := integrity.Unframe(raw, maxBody, magic)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decodeBody(bytes.NewReader(body))
}

// decodeBody parses the checksum-verified body. Any structural
// inconsistency inside verified bytes means the checkpoint was written
// wrong — ErrCorrupt.
func decodeBody(r *bytes.Reader) (*State, error) {
	bad := func(what string) error {
		return fmt.Errorf("checkpoint: %w: inconsistent %s", ErrCorrupt, what)
	}
	u64 := func() (uint64, bool) {
		var v uint64
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			return 0, false
		}
		return v, true
	}
	u32 := func() (uint32, bool) {
		var v uint32
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			return 0, false
		}
		return v, true
	}
	vec := func() ([]float64, bool) {
		n, ok := u32()
		if !ok || uint64(n)*8 > uint64(r.Len()) {
			return nil, false
		}
		v := make([]float64, n)
		if binary.Read(r, binary.LittleEndian, v) != nil {
			return nil, false
		}
		return v, true
	}

	st := &State{Trainer: &nn.TrainerState{}}
	step, ok := u64()
	if !ok {
		return nil, bad("step counter")
	}
	if int64(step) < 0 {
		return nil, bad("step counter (negative)")
	}
	st.Trainer.Step = int64(step)
	if st.RNGSeed, ok = u64(); !ok {
		return nil, bad("rng seed")
	}
	if st.RNGCount, ok = u64(); !ok {
		return nil, bad("rng count")
	}
	var kl uint8
	if binary.Read(r, binary.LittleEndian, &kl) != nil {
		return nil, bad("optimizer kind length")
	}
	kind := make([]byte, kl)
	if _, err := io.ReadFull(r, kind); err != nil {
		return nil, bad("optimizer kind")
	}
	st.Trainer.Opt.Kind = string(kind)
	optStep, ok := u64()
	if !ok {
		return nil, bad("optimizer step")
	}
	st.Trainer.Opt.Step = int64(optStep)

	nParams, ok := u32()
	if !ok || uint64(nParams)*4 > uint64(r.Len()) {
		return nil, bad("parameter count")
	}
	st.Trainer.Params = make([][]float64, nParams)
	for i := range st.Trainer.Params {
		if st.Trainer.Params[i], ok = vec(); !ok {
			return nil, bad(fmt.Sprintf("parameter %d", i))
		}
	}
	if st.Trainer.Sigmas, ok = vec(); !ok {
		return nil, bad("sigma estimates")
	}
	nIter, ok := u32()
	if !ok || uint64(nIter)*4 > uint64(r.Len()) {
		return nil, bad("iteration vector count")
	}
	st.Trainer.IterVecs = make([][]float64, nIter)
	for i := range st.Trainer.IterVecs {
		if st.Trainer.IterVecs[i], ok = vec(); !ok {
			return nil, bad(fmt.Sprintf("iteration vector %d", i))
		}
	}
	nSlots, ok := u32()
	if !ok || uint64(nSlots)*4 > uint64(r.Len()) {
		return nil, bad("optimizer slot count")
	}
	st.Trainer.Opt.Slots = make([][]float64, nSlots)
	for i := range st.Trainer.Opt.Slots {
		if st.Trainer.Opt.Slots[i], ok = vec(); !ok {
			return nil, bad(fmt.Sprintf("optimizer slot %d", i))
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return st, nil
}

// FileName returns the canonical checkpoint file name for a step.
func FileName(step int64) string { return generations.Name(step) }

// Save atomically writes st into dir under the canonical name for its
// step (integrity.WriteFileAtomic) and returns the final path.
func Save(dir string, st *State) (string, error) {
	raw, err := Encode(st)
	if err != nil {
		return "", err
	}
	return generations.Save(dir, st.Step(), raw)
}

// List returns the canonical checkpoint paths in dir, newest (highest
// step) first. Temp files and foreign names are ignored. A missing dir
// is an empty list, not an error.
func List(dir string) ([]string, error) { return generations.List(dir) }

// LoadLatest loads the newest decodable checkpoint in dir, skipping
// over damaged files (a torn or bit-rotted newest checkpoint falls back
// to the previous good one). Returns an error wrapping os.ErrNotExist
// when dir holds no usable checkpoint; damaged files encountered along
// the way are named in its message.
func LoadLatest(dir string) (*State, string, error) {
	st, path, err := integrity.LoadNewest(generations, dir, Decode)
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: %w", err)
	}
	return st, path, nil
}

// Prune removes all but the keep newest checkpoints in dir. keep <= 0
// keeps everything.
func Prune(dir string, keep int) error { return generations.Prune(dir, keep) }
