// Package experiments reproduces every table and figure of the paper's
// evaluation (Table I, Figs. 2-15) on the simulated substrates. Each
// runner returns a formatted table whose rows are the series the paper
// plots; EXPERIMENTS.md records the expected shapes.
//
// The three task models (H2 combustion, Borghesi flame, EuroSAT) are
// trained once per process with fixed seeds — or loaded from
// $ERRPROP_MODEL_DIR if previously saved by cmd/train — and shared by all
// experiments.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
)

// Variant selects the training regime for the Fig. 3-4 comparison.
type Variant int

const (
	// PSN trains with parameterized spectral normalization + penalty.
	PSN Variant = iota
	// Plain trains without any spectral control ("baseline").
	Plain
	// WeightDecay trains with L2 weight decay in place of PSN
	// ("baseline w. weight decay").
	WeightDecay
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case PSN:
		return "psn"
	case Plain:
		return "plain"
	case WeightDecay:
		return "wd"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// RegressionTask is a trained regression workload.
type RegressionTask struct {
	Name  string
	Net   *nn.Network
	Train *dataset.Regression
	Test  *dataset.Regression
	// QoIScaleLinf/L2 are reference output magnitudes on the test set,
	// used to express errors relatively as the paper does.
	QoIScaleLinf float64
	QoIScaleL2   float64
}

// ClassificationTask is the trained EuroSAT workload. The QoI is the
// final feature map (FeatureNet); the classification head serves the
// per-feature experiments.
type ClassificationTask struct {
	Name       string
	Net        *nn.Network // full classifier
	FeatureNet *nn.Network // truncated before the dense head (paper's QoI)
	Train      *dataset.Classification
	Test       *dataset.Classification
	// Feature-map QoI scales on the test set.
	QoIScaleLinf float64
	QoIScaleL2   float64
}

var (
	regMu      sync.Mutex
	regTasks   = map[string]*RegressionTask{}
	classTasks = map[string]*ClassificationTask{}
)

// H2 returns the hydrogen-combustion task trained with the given variant
// (cached per process).
func H2(v Variant) *RegressionTask { return regressionTask("h2comb", v) }

// Borghesi returns the dissipation-rate task (cached per process).
func Borghesi(v Variant) *RegressionTask { return regressionTask("borghesi", v) }

// RegressionTasks returns both regression tasks under a variant.
func RegressionTasks(v Variant) []*RegressionTask {
	return []*RegressionTask{H2(v), Borghesi(v)}
}

func regressionTask(name string, v Variant) *RegressionTask {
	regMu.Lock()
	defer regMu.Unlock()
	key := name + "/" + v.String()
	if t, ok := regTasks[key]; ok {
		return t
	}
	t := buildRegressionTask(name, v)
	regTasks[key] = t
	return t
}

// EuroSAT returns the satellite-classification task (cached per process).
func EuroSAT(v Variant) *ClassificationTask {
	regMu.Lock()
	defer regMu.Unlock()
	key := "eurosat/" + v.String()
	if t, ok := classTasks[key]; ok {
		return t
	}
	t := buildEuroSATTask(v)
	classTasks[key] = t
	return t
}

// modelDir returns the optional on-disk model cache directory.
func modelDir() string { return os.Getenv("ERRPROP_MODEL_DIR") }

// loadCached tries to load a trained model from the model directory.
func loadCached(key string) *nn.Network {
	dir := modelDir()
	if dir == "" {
		return nil
	}
	f, err := os.Open(filepath.Join(dir, key+".model"))
	if err != nil {
		return nil
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		return nil
	}
	return net
}

// saveCached persists a trained model if a model directory is
// configured. The write is atomic, so a crash never leaves a torn model
// behind; the cache is best effort, so a failed save is ignored.
func saveCached(key string, net *nn.Network) {
	dir := modelDir()
	if dir == "" {
		return
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return
	}
	_ = integrity.WriteFileAtomic(filepath.Join(dir, key+".model"), buf.Bytes())
}
