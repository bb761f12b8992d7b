# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a clean `make verify` locally means a green
# pipeline.

GO ?= go

.PHONY: build gofmt vet test race chaos bench fleet serve-soak trace golden fuzz-smoke escape-smoke ask-smoke tenants-smoke zoo-smoke experiments-smoke identity-smoke docs verify

build:
	$(GO) build ./...

## gofmt: every Go file must be gofmt-clean. The analyzer fixtures under
## internal/analysis/testdata/ are skipped: their tests pin diagnostic
## positions, so they keep their layout.
gofmt:
	@files=$$(find . -path ./internal/analysis/testdata -prune -o -path './.*' -prune \
		-o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists files to format:"; echo "$$files"; exit 1; fi

## vet: the gofmt check, standard go vet, and the repo's determinism-contract
## analyzers (wallclock, randsource, maporder, floateq, simgoroutine,
## hotalloc, lockguard, obscontract, deadapi — see DESIGN.md §5d). -time
## prints load and per-analyzer wall time so a pass that suddenly dominates
## is visible.
vet: gofmt
	$(GO) vet ./...
	$(GO) run ./cmd/nostop-vet -time ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## chaos: replay the scripted fault plan against all three variants over a
## 40-minute horizon, then print the plan and the NoStop run's timeline.
chaos:
	$(GO) run ./cmd/nostop-bench -experiment chaos -horizon 40m

## bench: the simulator's benchmark, perfbench (declared by BENCHMARK.json,
## see perfbench/README.md and docs/PERF.md): every workload for its default
## 10 s, then the microbenchmarks: the sim kernel's (32 tickers over a deep
## heap among them), the listener's (/status and the polled replies' wire
## codecs), and the substrates' (a producer tick's SendCount, a rate trace's
## slot draw, re-placing 8 executors on 1000 nodes, an engine hour bare,
## observed and traced, an SPSA step, a GP fit, a Cholesky factorization,
## one batch per workload, one controller poll through SimNet, one sim-mode
## soak-hour, one batch's trace events, an observed engine's exposition,
## each registered controller's decision per delivered batch).
bench:
	for w in sweep tenants zoo-observed service-soak; do bash perfbench/run.sh --workload $$w || exit 1; done
	$(GO) test ./internal/sim/bench -bench . -benchmem
	$(GO) test ./internal/listener -run '^$$' -bench 'CollectorStatus|Wire' -benchmem
	$(GO) test ./internal/broker ./internal/ratetrace ./internal/cluster ./internal/engine ./internal/spsa \
		./internal/baselines ./internal/linalg ./internal/workload ./internal/service \
		./internal/tracing ./internal/metrics ./internal/controllers -run '^$$' -bench . -benchmem

## golden: regenerate the golden-master artifacts (and the seeded chaos
## generators' plans) after an INTENDED output change. Review the diff
## before committing — these files are the determinism contract's
## byte-for-byte reference.
golden:
	GOLDEN_UPDATE=1 $(GO) test ./internal/experiments -run TestGolden -count=1
	GOLDEN_UPDATE=1 $(GO) test ./internal/faults -run TestChaosGeneratorsGolden -count=1

## fuzz-smoke: run each native fuzz target briefly against its corpus plus
## 30s of fresh inputs. CI runs the same budget.
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzRunUntilMatchesStep -fuzztime 30s
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzFleetSpec -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzConfigSpace -fuzztime 30s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzScenarioSpec -fuzztime 30s
	$(GO) test ./internal/tenant -run '^$$' -fuzz FuzzMixSpec -fuzztime 30s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzWireDecoders -fuzztime 30s
	$(GO) test ./internal/listener -run '^$$' -fuzz FuzzScanQuery -fuzztime 30s
	$(GO) test ./internal/broker -run '^$$' -fuzz FuzzBrokerLockstep -fuzztime 30s

## fleet: small parallel sweep with resume — the nostop-fleet smoke path.
fleet:
	$(GO) run ./cmd/nostop-fleet -workloads logreg,wordcount -controllers static,nostop \
		-seeds 1-3 -horizon 10m -j 4 -out /tmp/nostop-fleet
	$(GO) run ./cmd/nostop-fleet -workloads logreg,wordcount -controllers static,nostop \
		-seeds 1-3 -horizon 10m -j 4 -out /tmp/nostop-fleet -resume -quiet

## serve-soak: the service-mode chaos soak CI runs — two deterministic sim
## soaks, the scripted plan and a seeded plan that kills the engine (the
## controller's restart path), each replayed for byte-identical metrics,
## trace and stdout (both runs write the same paths, since stdout echoes
## them), then a wall-mode soak with a live broker kill/restart under the
## race detector. nostop-serve exits non-zero on any invariant violation,
## and the wall soak's exit status is kept (its stdout goes to a file, not
## through a pipe); the greps then check that its report reached its last
## line and that the kill happened.
serve-soak:
	$(GO) build -o /tmp/nostop-serve ./cmd/nostop-serve
	for args in "-duration 5m -seed 42" "-chaos seeded -seed 5 -duration 30m"; do \
		for run in a b; do \
			/tmp/nostop-serve $$args -metrics /tmp/nostop-soak.prom -trace /tmp/nostop-soak.json \
				> /tmp/nostop-soak.out || exit 1; \
			for f in prom json out; do mv /tmp/nostop-soak.$$f /tmp/nostop-soak-$$run.$$f; done; \
		done; \
		for f in prom json out; do cmp /tmp/nostop-soak-a.$$f /tmp/nostop-soak-b.$$f || exit 1; done; \
	done
	$(GO) run -race ./cmd/nostop-serve -mode wall -duration 4m -speedup 20 \
		-metrics /tmp/nostop-soak-wall.prom -trace /tmp/nostop-soak-wall-trace.json \
		> /tmp/nostop-soak-wall.out; status=$$?; cat /tmp/nostop-soak-wall.out; exit $$status
	grep -q "all invariants held" /tmp/nostop-soak-wall.out
	grep -q "nostop_service_chaos_kills_total 1" /tmp/nostop-soak-wall.prom

## ask-smoke: run every checked-in scenario spec through nostop-ask with one
## seed and -selftest: each report's verdict must match the spec's "expect"
## field, so a behavioural drift that flips a published verdict fails here.
ask-smoke:
	$(GO) run ./cmd/nostop-ask -smoke -selftest examples/scenarios/*.json

## tenants-smoke: the multi-tenant subsystem smoke — a small mix under the
## race detector, then a plain same-seed rerun whose JSON report must
## compare byte-identical (the determinism contract at CLI granularity).
tenants-smoke:
	$(GO) run -race ./cmd/nostop-tenants -tenants 4 -nodes 16 -cores 2 \
		-horizon 10m -allocator priority -out /tmp/nostop-tenants-a.json
	$(GO) run ./cmd/nostop-tenants -tenants 4 -nodes 16 -cores 2 \
		-horizon 10m -allocator priority -out /tmp/nostop-tenants-b.json
	cmp /tmp/nostop-tenants-a.json /tmp/nostop-tenants-b.json

## docs: the documentation lint — every relative markdown link must resolve
## (file and #anchor), and every `make <target>` / nostop-<x> command that
## the docs mention must actually exist (see docs_test.go).
docs:
	$(GO) test -run 'TestDocs' -count=1 .

## zoo-smoke: the controller-zoo smoke — nostop-bench's five-controller
## chaos sweep over the widened config space under the race detector, then a
## plain same-seed rerun at a different parallelism whose rendered report
## must compare byte-identical (the cross-controller determinism contract at
## CLI granularity).
zoo-smoke:
	$(GO) run -race ./cmd/nostop-bench -experiment zoo -reps 2 -horizon 20m -j 8 > /tmp/nostop-zoo-a.txt
	$(GO) run ./cmd/nostop-bench -experiment zoo -reps 2 -horizon 20m -j 1 > /tmp/nostop-zoo-b.txt
	cmp /tmp/nostop-zoo-a.txt /tmp/nostop-zoo-b.txt

## experiments-smoke: regenerate every table and figure at the paper's scale
## and compare the output byte for byte with the checked-in
## experiments_full.txt. The chaos, back-pressure, ablation, extension and
## zoo tables have no golden of their own; this is what pins them.
experiments-smoke:
	$(GO) run ./cmd/nostop-bench -experiment all | cmp - experiments_full.txt

## identity-smoke: "same bytes" as a gate. Each perfbench workload runs for
## 1 s at --seed 1, and the digest on its `identity:` line must equal the
## one identity_digests.txt holds for it. A change that alters output on
## purpose updates identity_digests.txt in the same commit, as it does the
## goldens and experiments_full.txt. Only seed 1 is pinned: 7919 stays held
## out.
identity-smoke:
	@while read -r w want; do \
		got=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 </dev/null \
			| sed -n 's/^identity: sha256 \([0-9a-f]*\) .*/\1/p'); \
		echo "identity-smoke: $$w $$got"; \
		if [ "$$got" != "$$want" ]; then echo "identity-smoke: $$w want $$want"; exit 1; fi; \
	done < identity_digests.txt

## trace: short observed run; nostop-sim validates the emitted file against
## the Chrome trace_event schema shape and exits non-zero if it is malformed.
trace:
	$(GO) run ./cmd/nostop-sim -horizon 10m -report 10m \
		-trace /tmp/nostop-trace.json -metrics /tmp/nostop-metrics.prom

## escape-smoke: pin the sim kernel's heap-escape profile. The compiler's -m
## diagnostics (line numbers stripped, sorted) must match the checked-in
## allowlist; a new "escapes to heap" line is either a hot-path regression or
## a deliberate change that updates internal/sim/escape_allowlist.txt. The
## exact diagnostics can shift across Go compiler releases — regenerate the
## allowlist when upgrading the toolchain.
escape-smoke:
	$(GO) build -gcflags='-m' ./internal/sim/... 2>&1 \
		| grep 'escapes to heap' | sed -E 's/:[0-9]+:[0-9]+:/:/' | sort \
		> /tmp/nostop-escapes.txt
	diff -u internal/sim/escape_allowlist.txt /tmp/nostop-escapes.txt

verify: build vet test race escape-smoke trace ask-smoke tenants-smoke zoo-smoke experiments-smoke identity-smoke
