package score

import (
	"testing"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/numfmt"
)

// TestScoreArtifactMatchesSpecPath: scoring cold-started from an
// artifact file — shipped quantized weights and build-time step tables,
// round-tripped through the wire format, with the program and error-flow
// graph derived from them — is bit-identical to scoring the same spec
// model built in memory, per chunk and in aggregate, across worker
// counts.
func TestScoreArtifactMatchesSpecPath(t *testing.T) {
	const features = 6
	net := testNet(t, features)
	dir, man := writeTestDataset(t, "sz", 1e-3, features, 200, 32)
	for _, f := range []numfmt.Format{numfmt.FP32, numfmt.INT8, numfmt.BF16} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := Config{QoIBudget: 10, Workers: 2, Batch: 16, Dir: dir}
			ref, err := scoreNet(t, net, f, man, cfg)
			if err != nil {
				t.Fatal(err)
			}
			art, err := artifact.Build(net, f)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := art.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := artifact.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5} {
				wcfg := cfg
				wcfg.Workers = workers
				got, err := ScoreArtifact(dec, man, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, got, ref, "decoded vs in-memory artifact")
				if got.QuantBound != ref.QuantBound || got.InputTolL2 != ref.InputTolL2 {
					t.Fatalf("certified accounting differs: bound %v vs %v, tol %v vs %v",
						got.QuantBound, ref.QuantBound, got.InputTolL2, ref.InputTolL2)
				}
			}
		})
	}

	// A manifest the artifact's model cannot read is a typed refusal.
	art, err := artifact.Build(testNet(t, features+1), numfmt.FP32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScoreArtifact(art, man, Config{Dir: dir}); err == nil {
		t.Fatal("dimension-mismatched artifact scored")
	}
}
