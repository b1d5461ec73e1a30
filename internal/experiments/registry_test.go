package experiments

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// TestModelCacheRoundTrip: a model saved to $ERRPROP_MODEL_DIR loads
// back with a bit-identical Forward, and the atomic write leaves only
// the model file behind.
func TestModelCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ERRPROP_MODEL_DIR", dir)
	net, err := nn.MLPSpec("cache", []int{9, 16, 9}, nn.ActTanh, true).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	saveCached("cache-psn", net)
	loaded := loadCached("cache-psn")
	if loaded == nil {
		t.Fatal("saved model did not load")
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewMatrix(9, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want, got := net.Forward(x, false), loaded.Forward(x, false)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: loaded %v, saved %v", i, got.Data[i], want.Data[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache-psn.model" {
		t.Fatalf("model dir holds %v, want only cache-psn.model", entries)
	}
}

func TestH2TaskTrains(t *testing.T) {
	task := H2(PSN)
	if task.Net == nil || task.Net.InputDim != 9 {
		t.Fatal("H2 task malformed")
	}
	mse := task.TestMSE()
	if mse > 0.05 {
		t.Fatalf("H2 test MSE %v too high — model did not train", mse)
	}
	if task.QoIScaleLinf <= 0 || task.QoIScaleL2 <= 0 {
		t.Fatal("QoI scales not set")
	}
}

func TestBorghesiTaskTrains(t *testing.T) {
	task := Borghesi(PSN)
	mse := task.TestMSE()
	if mse > 0.08 {
		t.Fatalf("Borghesi test MSE %v too high", mse)
	}
}

func TestEuroSATTaskTrains(t *testing.T) {
	task := EuroSAT(PSN)
	acc := task.TestAccuracy()
	if acc < 0.5 { // 10 classes, random = 0.1
		t.Fatalf("EuroSAT accuracy %v too low — classifier did not train", acc)
	}
	if task.FeatureNet == nil || len(task.FeatureNet.Layers) >= len(task.Net.Layers) {
		t.Fatal("feature network not truncated")
	}
}

func TestTasksCached(t *testing.T) {
	a := H2(PSN)
	b := H2(PSN)
	if a != b {
		t.Fatal("registry should cache tasks")
	}
	c := H2(Plain)
	if a == c {
		t.Fatal("variants must be distinct")
	}
}

func TestPSNBoundTighterThanBaselines(t *testing.T) {
	// The premise of Figs. 3-4: PSN training keeps the Lipschitz product
	// small, so its predicted bound is tighter than the plain baseline's.
	lip := func(v Variant) float64 {
		task := H2(v)
		var prod float64 = 1
		for _, op := range task.Net.LinearOps() {
			prod *= op.Sigma
		}
		return prod
	}
	psn, plain := lip(PSN), lip(Plain)
	if psn >= plain {
		t.Fatalf("PSN Lipschitz product %v should be below plain %v", psn, plain)
	}
}
