# Development and CI entry points. `make ci` is what the GitHub Actions
# workflow runs; every target works standalone.

GO ?= go

.PHONY: all build vet fmt-check test race fuzz-smoke lint vet-baseline-update serve-smoke score-smoke gateway-smoke bench-serve bench-train bench-infer bench-score bench-smoke bench-test bench ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints unformatted files; fail if any.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# -shuffle=on randomizes test (and subtest) execution order every run,
# flushing out inter-test state dependence; a failure log prints the seed
# to reproduce.
test:
	$(GO) test -shuffle=on ./...

# The experiments package trains small networks end to end; under the
# race detector that legitimately exceeds go test's default 10m per-binary
# timeout, so give the run headroom. Measured worst case: ~28m for the
# experiments binary on a one-core runner (multi-core runners finish
# sooner — the data-parallel trainer shards training across cores), so
# 35m is real slack while still failing a wedged binary within the job.
race:
	$(GO) test -race -shuffle=on -timeout=35m ./...

# ~33s total fuzz smoke, 3s per target: enough to catch a freshly
# introduced panic without stalling CI. Targets are pkg:Fuzz pairs;
# FuzzDecodeContainer exercises the checksummed v2 container framing
# (with v1 seeds for the legacy path), FuzzUnframe the integrity frame
# every other durable format shares, the checkpoint, score
# manifest/cursor, gateway registry and artifact targets the decoders
# built on it, and the two tensor targets are the differential kernel
# fuzzers: blocked/fused engine kernels must stay byte-exact against
# the naive reference loops over random shapes.
FUZZ_TARGETS = \
	./internal/compress:FuzzDecodeContainer \
	./internal/compress:FuzzHuffmanDecode \
	./internal/compress:FuzzSZRoundTrip \
	./internal/integrity:FuzzUnframe \
	./internal/checkpoint:FuzzDecodeCheckpoint \
	./internal/score:FuzzDecodeManifest \
	./internal/score:FuzzDecodeCursor \
	./internal/gateway:FuzzDecodeRegistry \
	./internal/artifact:FuzzDecodeArtifact \
	./internal/tensor:FuzzMulIntoBlocked \
	./internal/tensor:FuzzIm2ColMatInto
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg)"; \
		$(GO) test -run='^$$' -fuzz="^$$fn$$" -fuzztime=3s $$pkg || exit 1; \
	done

# The repo's own numeric-soundness/determinism analyzers (see README
# "Static analysis"). The committed baseline tolerates recorded findings
# and fails only on NEW ones; keep it empty — it exists so a future
# analyzer can land before its backlog is burned down.
lint:
	$(GO) run ./cmd/errpropvet -baseline errpropvet.baseline.json ./...

# Re-record the lint baseline from the current tree. Run this only when
# deliberately accepting findings (and say why in the commit message).
vet-baseline-update:
	$(GO) run ./cmd/errpropvet -baseline errpropvet.baseline.json -update-baseline ./...

# End-to-end daemon smoke test: boot errpropd on a random port with the
# built-in demo model, hit /healthz and one /v1/predict, then verify the
# SIGTERM drain path exits 0.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/errpropd" ./cmd/errpropd; \
	"$$tmp/errpropd" -addr 127.0.0.1:0 -demo -format fp16 \
	  -portfile "$$tmp/port" >"$$tmp/log" 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 100); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/port" ] || { echo "errpropd never wrote portfile"; cat "$$tmp/log"; exit 1; }; \
	addr=$$(cat "$$tmp/port"); \
	curl -fsS "http://$$addr/healthz" >/dev/null; \
	curl -fsS "http://$$addr/v1/predict" \
	  -d '{"model":"demo","inputs":[[0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]],"tolerance":1e6}' \
	  | grep -q '"outputs"'; \
	kill -TERM $$pid; \
	wait $$pid || { echo "errpropd did not drain cleanly"; cat "$$tmp/log"; exit 1; }; \
	echo "serve-smoke OK ($$addr)"

# End-to-end bulk-scoring crash drill: write a tiny dataset, score it
# once for reference, score it again with a cursor dir but crash (exit 7)
# mid-run via -exit-after, resume, and require the result log and the
# deterministic summary to be byte-identical to the reference run's.
score-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/score" ./cmd/score; \
	"$$tmp/score" -write "$$tmp/ds" -codec sz -tol 1e-3 -samples 1024 -chunk 64 2>/dev/null; \
	"$$tmp/score" -manifest "$$tmp/ds/MANIFEST" -demo -format fp16 -budget 0.5 \
	  -out "$$tmp/ref.jsonl" -summary "$$tmp/ref.json" 2>/dev/null; \
	set +e; \
	"$$tmp/score" -manifest "$$tmp/ds/MANIFEST" -demo -format fp16 -budget 0.5 \
	  -out "$$tmp/res.jsonl" -summary "$$tmp/res.json" \
	  -cursor-dir "$$tmp/cur" -checkpoint-every 3 -exit-after 9 2>/dev/null; \
	code=$$?; set -e; \
	[ $$code -eq 7 ] || { echo "crash drill: want exit 7, got $$code"; exit 1; }; \
	ls "$$tmp/cur"/cursor-*.cur >/dev/null || { echo "crash run left no cursor"; exit 1; }; \
	"$$tmp/score" -manifest "$$tmp/ds/MANIFEST" -demo -format fp16 -budget 0.5 -workers 2 \
	  -out "$$tmp/res.jsonl" -summary "$$tmp/res.json" \
	  -cursor-dir "$$tmp/cur" -checkpoint-every 3 2>/dev/null; \
	cmp "$$tmp/ref.jsonl" "$$tmp/res.jsonl" || { echo "resumed result log differs from reference"; exit 1; }; \
	cmp "$$tmp/ref.json" "$$tmp/res.json" || { echo "resumed summary differs from reference"; exit 1; }; \
	echo "score-smoke OK (kill at chunk 9, resume bit-identical)"

# End-to-end fleet drill with real processes: boot errpropd -gateway
# over 2 spawned backends, predict through the gateway, require a
# /v1/plan through the gateway to be byte-identical to a backend's own
# answer while no backend's requests_total moves (spawn mode pins its
# artifacts, so the gateway plans locally), SIGKILL one backend mid-fleet, keep predicting (every response must succeed — the
# gateway retries around the corpse until the supervisor respawns it),
# require /metrics to show the kill was seen (retries, probe failures,
# or backend failures) and the fleet back at 2 ready backends with
# breakers closed, then SIGTERM-drain the gateway and require exit 0.
gateway-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/errpropd" ./cmd/errpropd; \
	"$$tmp/errpropd" -gateway -spawn 2 -demo -format fp16 -probe 50ms \
	  -addr 127.0.0.1:0 -portfile "$$tmp/port" >"$$tmp/log" 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 200); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/port" ] || { echo "gateway never wrote portfile"; cat "$$tmp/log"; exit 1; }; \
	addr=$$(cat "$$tmp/port"); \
	predict() { curl -fsS "http://$$addr/v1/predict" \
	  -d "{\"model\":\"demo\",\"inputs\":[[0,0.1,0.2,0.3,0.4,$$1,0.6,0.7,0.8]],\"tolerance\":1e6}" \
	  | grep -q '"outputs"'; }; \
	for i in $$(seq 1 100); do \
	  curl -fsS "http://$$addr/healthz" | grep -q '"ready":true' && break; sleep 0.1; done; \
	predict 0.50 || { echo "pre-kill predict failed"; cat "$$tmp/log"; exit 1; }; \
	m=$$(curl -fsS "http://$$addr/metrics"); \
	child=$$(echo "$$m" | grep -o '"addr":"[^"]*"' | head -1 | cut -d'"' -f4); \
	sent=$$(echo "$$m" | sed 's/.*"backends"//' | grep -o '"requests_total":[0-9]*'); \
	plan='{"model":"demo","tol":0.5}'; \
	curl -fsS "http://$$addr/v1/plan" -d "$$plan" >"$$tmp/plan.gw"; \
	curl -fsS "http://$$child/v1/plan" -d "$$plan" >"$$tmp/plan.child"; \
	cmp "$$tmp/plan.gw" "$$tmp/plan.child" || { echo "gateway /v1/plan differs from backend $$child's"; exit 1; }; \
	now=$$(curl -fsS "http://$$addr/metrics" | sed 's/.*"backends"//' | grep -o '"requests_total":[0-9]*'); \
	[ "$$sent" = "$$now" ] || { echo "gateway /v1/plan reached a backend: $$sent -> $$now"; exit 1; }; \
	victim=$$(pgrep -P $$pid | head -1); \
	[ -n "$$victim" ] || { echo "no backend child found"; cat "$$tmp/log"; exit 1; }; \
	kill -9 "$$victim"; \
	for i in $$(seq 1 30); do \
	  predict "0.$$i" || { echo "predict $$i after SIGKILL failed"; cat "$$tmp/log"; exit 1; }; done; \
	evidence=0; recovered=0; \
	for i in $$(seq 1 100); do \
	  m=$$(curl -fsS "http://$$addr/metrics"); \
	  e=$$(echo "$$m" | grep -o '"retries_total":[0-9]*\|"probe_failures_total":[0-9]*\|"failures_total":[0-9]*' \
	    | awk -F: '{s+=$$2} END {print s+0}'); \
	  [ "$$e" -gt 0 ] && evidence=1; \
	  closed=$$(echo "$$m" | grep -o '"breaker":"closed"' | wc -l); \
	  ready=$$(echo "$$m" | grep -o '"ready":true' | wc -l); \
	  if [ "$$closed" -eq 2 ] && [ "$$ready" -ge 2 ] && [ "$$evidence" -eq 1 ]; then recovered=1; break; fi; \
	  sleep 0.1; done; \
	[ "$$recovered" -eq 1 ] || { echo "fleet never recovered with kill evidence (evidence=$$evidence)"; \
	  curl -fsS "http://$$addr/metrics"; cat "$$tmp/log"; exit 1; }; \
	predict 0.99 || { echo "post-recovery predict failed"; cat "$$tmp/log"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "gateway did not drain cleanly"; cat "$$tmp/log"; exit 1; }; \
	echo "gateway-smoke OK (SIGKILL absorbed, fleet recovered, drained)"

# Reproduce BENCH_score.json: simulated bulk-scoring throughput vs
# compression tolerance for sz/zfp/mgard (see README "Bulk scoring").
bench-score:
	ERRPROP_SCORE_BENCH_OUT=$(CURDIR)/BENCH_score.json \
	$(GO) test -run '^TestWriteScoreBenchJSON$$' -count=1 -v ./internal/score

# Reproduce BENCH_serve.json: the batched-vs-unbatched load comparison
# at 1/8/64 concurrent clients (see README "Serving").
bench-serve:
	ERRPROP_SERVE_BENCH_OUT=$(CURDIR)/BENCH_serve.json \
	$(GO) test -run '^TestWriteServeBenchJSON$$' -count=1 -v ./internal/serve

# Reproduce BENCH_train.json: the data-parallel trainer vs the legacy
# serial loop on the two paper regression models, sweeping worker counts
# and asserting the bit-identity invariant (see README "Training").
bench-train:
	ERRPROP_TRAIN_BENCH_OUT=$(CURDIR)/BENCH_train.json \
	$(GO) test -run '^TestWriteTrainBenchJSON$$' -count=1 -v ./internal/nn

# Reproduce BENCH_infer.json: Network.Forward vs the blocked/fused
# engine on MLP/conv/attention shapes, with the first engine's
# naive-kernel ratio (pr5_kernels) as speedup anchor, plus served
# req/s on the engine-backed worker pool (see README "Inference
# engine").
bench-infer:
	ERRPROP_INFER_BENCH_OUT=$(CURDIR)/BENCH_infer.json \
	$(GO) test -run '^TestWriteInferBenchJSON$$' -count=1 -v ./internal/serve

# One-pass bench smoke: the legacy-vs-engine forward benchmarks — MLP,
# conv, attention, and the multi-lane engine variant — must run (10
# iterations — correctness of the harness, not timing stability), so a
# refactor cannot silently break the benchmark surface.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkForward(Legacy|Engine)' -benchtime 10x ./internal/nn

# The benchmark module (bench/, its own go.mod) sits outside the root
# module's `go test ./...`, yet it calls the public layer entry points;
# its tests (~10s) catch an API change that would break it.
bench-test:
	cd bench && $(GO) test ./...

# One seeded run of each benchmark workload (see bench/README.md): every
# run prints its JSON report and exits non-zero if a correctness check
# fails. Takes a few minutes: each run measures for 20s after its setup.
BENCH_WORKLOADS = interactive bulk-blob fleet score-loose score-tight
bench:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench $$w"; \
		bash bench/run.sh --workload $$w --seed 1 || exit 1; \
	done

ci: build vet fmt-check race fuzz-smoke lint serve-smoke score-smoke gateway-smoke bench-smoke bench-test
