package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sync/atomic"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/compress"
	_ "github.com/scidata/errprop/internal/compress/mgard" // codec registration
	_ "github.com/scidata/errprop/internal/compress/sz"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/serve"
	"github.com/scidata/errprop/internal/tensor"
)

// refBatch is the widest batch the benchmark's own engines take.
const refBatch = 256

// h2Grid sizes the H2Combustion field the online workloads draw their
// samples from: 256x256 grid points, about 61k distinct samples.
const h2Grid = 256

// blobTol is the SZ abs-L-infinity tolerance of bulk-blob request bodies.
const blobTol = 1e-3

// model is one of the paper's two models as served: its FP16 artifact
// on disk plus the two references every served output is checked
// against.
type model struct {
	name string
	path string
	art  *artifact.Artifact
	// quant is bound from the artifact read back from path; a served
	// output must equal its output bit for bit.
	quant *nn.Engine
	// fp32 runs the unquantized network; served outputs must stay within
	// the response's certified bound of it (Inequality (3)).
	fp32 *nn.Engine
	an   *core.Analysis
}

// buildModels builds the two models from their fixed seeds, compiles
// them to FP16 artifacts in dir and reads them back.
func buildModels(dir string) (h2, euro *model, err error) {
	h2, err = buildModel(dir, "h2comb", nn.MLPSpec("h2comb", []int{9, 50, 50, 9}, nn.ActTanh, true), 1234)
	if err != nil {
		return nil, nil, err
	}
	euro, err = buildModel(dir, "eurosat", nn.ResNetSpec("eurosat", dataset.EuroSATBands, 8, 8, 10,
		[]int{1, 1}, []int{8, 16}, nn.ActReLU, true), 4321)
	if err != nil {
		return nil, nil, err
	}
	return h2, euro, nil
}

func buildModel(dir, name string, spec *nn.Spec, seed int64) (*model, error) {
	net, err := spec.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	built, err := artifact.Build(net, numfmt.FP16)
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	m := &model{name: name, path: filepath.Join(dir, name+".aot")}
	if err := artifact.WriteFile(m.path, built); err != nil {
		return nil, fmt.Errorf("writing %s: %w", m.path, err)
	}
	if m.art, err = artifact.ReadFile(m.path); err != nil {
		return nil, fmt.Errorf("reading %s: %w", m.path, err)
	}
	if m.quant, err = m.art.Program.Bind(m.art.Net, refBatch, 1); err != nil {
		return nil, fmt.Errorf("binding %s: %w", name, err)
	}
	if m.fp32, err = nn.CompileInference(net, refBatch); err != nil {
		return nil, fmt.Errorf("compiling fp32 %s: %w", name, err)
	}
	steps, err := m.art.StepsFor(m.art.Format)
	if err != nil {
		return nil, err
	}
	m.an = core.Analyze(m.art.Root, steps)
	return m, nil
}

// columns lays rows (one sample each) out feature-major, as the
// (features x samples) matrix an engine takes and a container stores.
func columns(rows [][]float64) *tensor.Matrix {
	x := tensor.NewMatrix(len(rows[0]), len(rows))
	for i, row := range rows {
		for f, v := range row {
			x.Data[f*len(rows)+i] = v
		}
	}
	return x
}

// forward runs rows (one sample each) through eng and returns fresh
// output rows.
func forward(eng *nn.Engine, rows [][]float64) [][]float64 {
	out := make([][]float64, 0, len(rows))
	for lo := 0; lo < len(rows); lo += refBatch {
		hi := min(lo+refBatch, len(rows))
		k := hi - lo
		y := eng.Forward(columns(rows[lo:hi]))
		for i := 0; i < k; i++ {
			col := make([]float64, y.Rows)
			for f := range col {
				col[f] = y.Data[f*k+i]
			}
			out = append(out, col)
		}
	}
	return out
}

type kind int

const (
	kindPredict kind = iota // JSON predict
	kindBlob                // compressed-container predict
	kindPlan                // /v1/plan
)

// slot is one distinct request body, and what its response is checked
// against. Every response to a slot must be byte-identical to the first
// 200 received, which is verified in full after the run.
type slot struct {
	kind  kind
	path  string
	ctype string
	body  []byte
	key   uint32 // CRC32C of body: the key its spans share
	model *model
	// x holds the original, uncompressed inputs, one row per sample.
	x [][]float64
	// want is a plan slot's expected response body.
	want  []byte
	first atomic.Pointer[[]byte]
}

func (s *slot) samples() int { return len(s.x) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func newSlot(k kind, path, ctype string, body []byte, m *model, x [][]float64) *slot {
	return &slot{kind: k, path: path, ctype: ctype, body: body, key: crc(body), model: m, x: x}
}

// predictSlot is a JSON predict of one sample with a tolerance between
// two and four times the model's certified bound.
func predictSlot(m *model, x []float64, rng *detrand.Stream) (*slot, error) {
	body, err := json.Marshal(serve.PredictRequest{
		Model:     m.name,
		Inputs:    [][]float64{x},
		Tolerance: m.an.QuantizationBound() * (2 + 2*rng.Float64()),
	})
	if err != nil {
		return nil, err
	}
	return newSlot(kindPredict, "/v1/predict", "application/json", body, m, [][]float64{x}), nil
}

// blobSlot is a predict whose body is the feature-major block of rows
// compressed with SZ at blobTol.
func blobSlot(m *model, rows [][]float64, rng *detrand.Stream) (*slot, error) {
	block := columns(rows)
	body, err := compress.Encode("sz", block.Data, []int{block.Rows, block.Cols}, compress.AbsLinf, blobTol)
	if err != nil {
		return nil, err
	}
	tol := m.an.BoundLinf(blobTol) * (2 + 2*rng.Float64())
	path := fmt.Sprintf("/v1/predict?model=%s&tolerance=%v", m.name, tol)
	return newSlot(kindBlob, path, serve.BlobContentType, body, m, rows), nil
}

func planSlot(m *model, tol float64) (*slot, error) {
	body, err := json.Marshal(serve.PlanRequest{Model: m.name, Tol: tol})
	if err != nil {
		return nil, err
	}
	return newSlot(kindPlan, "/v1/plan", "application/json", body, m, nil), nil
}

// h2Rows returns n distinct H2Combustion samples in a seeded order, or
// all of the field's distinct samples (about 61k) if there are fewer.
func h2Rows(seed int64, n int) [][]float64 {
	ds := dataset.H2Combustion(h2Grid, seed)
	cols := ds.N()
	seen := make(map[[9]uint64]bool, n)
	rows := make([][]float64, 0, n)
	for _, c := range detrand.New(uint64(seed)).Perm(cols) {
		var k [9]uint64
		row := make([]float64, ds.InDim)
		for f := range row {
			row[f] = ds.X.Data[f*cols+c]
			k[f] = math.Float64bits(row[f])
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		rows = append(rows, row)
		if len(rows) == n {
			break
		}
	}
	return rows
}

// euroRows returns n seeded EuroSAT tiles, flattened to the model's
// input layout.
func euroRows(seed int64, n int) [][]float64 {
	ds := dataset.EuroSAT(n, 8, seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), ds.Images.Sample(i)...)
	}
	return rows
}

// traffic is a run's request sequence: request i sends
// slots[seq[i%len(seq)]].
type traffic struct {
	slots []*slot
	seq   []int
}

func (t *traffic) slotOf(i int) (int, *slot) {
	k := t.seq[i%len(t.seq)]
	return k, t.slots[k]
}

// digest identifies the traffic's bodies and their order.
func (t *traffic) digest() uint32 {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v\n", t.seq)
	for _, s := range t.slots {
		fmt.Fprintf(&b, "%s %s %d\n", s.path, s.ctype, len(s.body))
		b.Write(s.body)
	}
	return crc(b.Bytes())
}

// onlineTraffic is the interactive and fleet mix for n requests: 90%
// single-sample h2comb predicts, and 10% single-tile eurosat predicts
// (interactive) or /v1/plan calls over eight tolerances (fleet). Predict
// bodies are distinct unless a run needs more h2comb samples than the
// field has.
func onlineTraffic(seed int64, n int, h2, euro *model, fleet bool) (*traffic, error) {
	rng := detrand.New(uint64(seed) ^ 0x6f6e6c696e65)
	minor := make([]bool, n)
	nMinor := 0
	for i := range minor {
		minor[i] = rng.Float64() < 0.1
		if minor[i] {
			nMinor++
		}
	}
	rows := h2Rows(seed, n-nMinor)
	t := &traffic{}
	var minorSlots []*slot
	if fleet {
		// Eight tolerances from twice to 512 times the certified bound.
		for k := 0; k < 8; k++ {
			s, err := planSlot(h2, h2.an.QuantizationBound()*math.Ldexp(1+rng.Float64(), k+1))
			if err != nil {
				return nil, err
			}
			minorSlots = append(minorSlots, s)
		}
	} else {
		// Tiles are 17 kB bodies; a long run cycles through 2048 of them.
		for _, x := range euroRows(seed, min(nMinor, 2048)) {
			s, err := predictSlot(euro, x, rng)
			if err != nil {
				return nil, err
			}
			minorSlots = append(minorSlots, s)
		}
	}
	t.slots = append(t.slots, minorSlots...)
	next, nextMinor := 0, 0
	for i := 0; i < n; i++ {
		if minor[i] {
			t.seq = append(t.seq, nextMinor%len(minorSlots))
			nextMinor++
			continue
		}
		s, err := predictSlot(h2, rows[next%len(rows)], rng)
		if err != nil {
			return nil, err
		}
		next++
		t.seq = append(t.seq, len(t.slots))
		t.slots = append(t.slots, s)
	}
	return t, nil
}

// blobTraffic is bulk-blob's pool of distinct 256-sample SZ blocks,
// each a contiguous run of H2Combustion grid points, cycled in a seeded
// order.
func blobTraffic(seed int64, blocks int, h2 *model) (*traffic, error) {
	const width = 256
	ds := dataset.H2Combustion(h2Grid, seed)
	cols := ds.N()
	rng := detrand.New(uint64(seed) ^ 0x626c6f62)
	t := &traffic{}
	for b := 0; b < blocks; b++ {
		start := rng.Intn(cols - width)
		rows := make([][]float64, width)
		for i := range rows {
			rows[i] = make([]float64, ds.InDim)
			for f := range rows[i] {
				rows[i][f] = ds.X.Data[f*cols+start+i]
			}
		}
		s, err := blobSlot(h2, rows, rng)
		if err != nil {
			return nil, err
		}
		t.slots = append(t.slots, s)
	}
	t.seq = rng.Perm(blocks)
	return t, nil
}

// servedInputs returns the inputs the server computes on for s: the
// JSON rows as sent, or the decoded container of a blob body.
func servedInputs(s *slot) ([][]float64, error) {
	if s.kind != kindBlob {
		return s.x, nil
	}
	data, blk, err := compress.Decode(s.body)
	if err != nil {
		return nil, err
	}
	feats, n := blk.Dims[0], blk.Dims[1]
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, feats)
		for f := range rows[i] {
			rows[i][f] = data[f*n+i]
		}
	}
	return rows, nil
}

// errUnsound marks an output farther from the FP32 network's than its
// certified bound allows.
var errUnsound = errors.New("Inequality (3) violated")

// verifyFirst checks a slot's first 200 response in full. A predict
// must carry, for every sample, exactly the reference engine's outputs
// on the inputs the server computed on, and must stay within its
// certified total_bound of the FP32 network on the original inputs
// (Inequality (3)). It returns the largest measured-error/bound ratio.
func verifyFirst(s *slot, resp []byte) (boundUse float64, err error) {
	if s.kind == kindPlan {
		if !bytes.Equal(resp, s.want) {
			return 0, fmt.Errorf("plan response differs from the backend's own answer")
		}
		return 0, nil
	}
	var pred serve.PredictResponse
	if err := json.Unmarshal(resp, &pred); err != nil {
		return 0, fmt.Errorf("decoding predict response: %w", err)
	}
	if pred.Bound == nil || len(pred.Outputs) != s.samples() {
		return 0, fmt.Errorf("response has %d outputs for %d samples (bound %v)", len(pred.Outputs), s.samples(), pred.Bound)
	}
	served, err := servedInputs(s)
	if err != nil {
		return 0, err
	}
	want := forward(s.model.quant, served)
	exact := forward(s.model.fp32, s.x)
	for i, got := range pred.Outputs {
		if !bitEqual(got, want[i]) {
			return 0, fmt.Errorf("sample %d: served output differs from the reference engine", i)
		}
		dist := l2dist(got, exact[i])
		if !(dist <= pred.Bound.TotalBound) {
			return 0, fmt.Errorf("%w: sample %d: |dy|_2 = %g exceeds certified bound %g", errUnsound, i, dist, pred.Bound.TotalBound)
		}
		boundUse = math.Max(boundUse, dist/pred.Bound.TotalBound)
	}
	return boundUse, nil
}

// bitEqual reports whether a and b hold the same float64 bit patterns.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func l2dist(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}
