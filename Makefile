# Benchmark baseline tracking (DESIGN.md §10).
#
# `make bench` regenerates the two tracked benchmark baselines:
#
#   results/BENCH_sim.json      — simulator & engine benchmarks, incl.
#                                 the before/after pairs of the retained
#                                 reference engine vs the event-driven
#                                 engine per load scenario, of the
#                                 sequential vs batched (RunMany)
#                                 scenario-campaign runner and of
#                                 full-horizon vs target-scoped
#                                 phasing-search probes
#   results/BENCH_analysis.json — analysis-side benchmarks (fixed-point
#                                 scaling, set construction, Table II
#                                 columns) and the scratch-vs-incremental
#                                 what-if pairs
#
# `make bench-exhaustive` regenerates the explicit-state backend's
# reduction baseline:
#
#   results/BENCH_exhaustive.json — raw-grid vs symmetry-quotiented,
#                                 cluster-decomposed enumeration on the
#                                 4-flow reference config; the pair
#                                 speedup is the wall-clock win and the
#                                 states/op metrics carry the state-
#                                 count reduction behind it. A second
#                                 pair runs the config's cluster
#                                 representatives to the horizon vs to
#                                 their first idle instant.
#
# For every target, when a committed baseline already exists, the
# regenerated pair speedups are gated against it: a drop of more than
# MAXREGRESS fails the target (exit 3 from benchjson) and leaves the
# committed file untouched, so CI catches an engine, an incremental
# path or a reduction that quietly stopped paying off.
#
# BENCHTIME/COUNT tune fidelity vs wall time; CI uses the defaults and
# uploads the files as artifacts.

BENCHTIME  ?= 1s
COUNT      ?= 1
MAXREGRESS ?= 25%

.PHONY: bench bench-sim bench-analysis bench-exhaustive

bench: bench-sim bench-analysis bench-exhaustive

bench-sim:
	@mkdir -p results
	{ \
	  go test -run=NONE -count=$(COUNT) -benchtime=$(BENCHTIME) -benchmem \
	    -bench 'BenchmarkSimulator$$|BenchmarkSimulatorMeshScaling$$|BenchmarkWorstCaseSearch$$' . && \
	  go test -run=NONE -count=$(COUNT) -benchtime=$(BENCHTIME) -benchmem \
	    -bench 'BenchmarkEngine|BenchmarkRunMany|BenchmarkSearchProbe' ./internal/sim ; \
	} > results/.bench_sim.txt
	@if [ -f results/BENCH_sim.json ]; then \
	  go run ./cmd/benchjson -in results/.bench_sim.txt \
	    -out results/.bench_sim.json.new \
	    -baseline results/BENCH_sim.json -max-regress $(MAXREGRESS); \
	else \
	  go run ./cmd/benchjson -in results/.bench_sim.txt \
	    -out results/.bench_sim.json.new; \
	fi
	@mv results/.bench_sim.json.new results/BENCH_sim.json
	@rm -f results/.bench_sim.txt
	@echo wrote results/BENCH_sim.json

bench-analysis:
	@mkdir -p results
	go test -run=NONE -count=$(COUNT) -benchtime=$(BENCHTIME) -benchmem \
	  -bench 'BenchmarkAnalysisScaling$$|BenchmarkBuildSets$$|BenchmarkTable2Didactic$$|BenchmarkAblationEq7$$|BenchmarkWhatIfScratch$$|BenchmarkWhatIfIncremental$$' . \
	  > results/.bench_analysis.txt
	@if [ -f results/BENCH_analysis.json ]; then \
	  go run ./cmd/benchjson -in results/.bench_analysis.txt \
	    -out results/.bench_analysis.json.new \
	    -baseline results/BENCH_analysis.json -max-regress $(MAXREGRESS); \
	else \
	  go run ./cmd/benchjson -in results/.bench_analysis.txt \
	    -out results/.bench_analysis.json.new; \
	fi
	@mv results/.bench_analysis.json.new results/BENCH_analysis.json
	@rm -f results/.bench_analysis.txt
	@echo wrote results/BENCH_analysis.json

bench-exhaustive:
	@mkdir -p results
	go test -run=NONE -count=$(COUNT) -benchtime=$(BENCHTIME) -benchmem \
	  -bench 'BenchmarkExhaustive' ./internal/exhaustive \
	  > results/.bench_exhaustive.txt
	@if [ -f results/BENCH_exhaustive.json ]; then \
	  go run ./cmd/benchjson -in results/.bench_exhaustive.txt \
	    -out results/.bench_exhaustive.json.new \
	    -baseline results/BENCH_exhaustive.json -max-regress $(MAXREGRESS); \
	else \
	  go run ./cmd/benchjson -in results/.bench_exhaustive.txt \
	    -out results/.bench_exhaustive.json.new; \
	fi
	@mv results/.bench_exhaustive.json.new results/BENCH_exhaustive.json
	@rm -f results/.bench_exhaustive.txt
	@echo wrote results/BENCH_exhaustive.json
