# Convenience aliases; dune is the build system.

.PHONY: all check test lint stats serve-smoke corpus-smoke pool-smoke conc-smoke control-smoke search-smoke fixtures bench bench-snapshot fmt clean

all:
	dune build @all

# Tier-1 verification in one command.  The formatting check only runs
# when ocamlformat is installed (version pinned in .ocamlformat); the
# build and tests never depend on it.
check:
	dune build && dune runtest
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  echo "checking formatting"; dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

test: check

# Static diagnostics: every registered app must audit clean under
# --strict, the committed clean model fixture must pass, and each
# seeded-corruption fixture must fail with its documented rule code.
lint:
	dune build bin/opprox_cli.exe
	dune exec --no-build bin/opprox_cli.exe -- check --strict
	dune exec --no-build bin/opprox_cli.exe -- check kmeans --strict \
	  --models test/fixtures/trained_kmeans.sexp
	@for f in corrupt_nan_coeff corrupt_inverted_ci; do \
	  if dune exec --no-build bin/opprox_cli.exe -- check kmeans \
	       --models test/fixtures/$$f.sexp >/dev/null 2>&1; then \
	    echo "lint: $$f.sexp was NOT flagged"; exit 1; \
	  else echo "lint: $$f.sexp flagged (ok)"; fi; \
	done
	@for f in corrupt_level_range corrupt_ragged; do \
	  if dune exec --no-build bin/opprox_cli.exe -- check kmeans \
	       --schedule test/fixtures/$$f.sexp >/dev/null 2>&1; then \
	    echo "lint: $$f.sexp was NOT flagged"; exit 1; \
	  else echo "lint: $$f.sexp flagged (ok)"; fi; \
	done
	@echo "lint: ok"

# Observability smoke test: a reduced pipeline pass must complete and
# report live metrics, and the tracer must emit loadable JSON.
stats:
	dune build bin/opprox_cli.exe
	dune exec --no-build bin/opprox_cli.exe -- stats
	dune exec --no-build bin/opprox_cli.exe -- stats kmeans --trace /tmp/opprox_stats_trace.json \
	  --metrics-sexp > /dev/null
	@test -s /tmp/opprox_stats_trace.json && echo "stats: trace written (ok)"
	@rm -f /tmp/opprox_stats_trace.json

# Serving smoke test: a daemon on a temp socket (the select loop plus one
# pool worker, as `-j 2` gives) must answer a cold request with a plan
# (cache miss), the repeat from the cache (hit), reject a bad budget and
# a malformed frame with nonzero exits, answer a burst of 8 concurrent
# identical cold requests with 8 plans from one solve, and drain to exit
# status 0 on SIGTERM.  Its metrics dump must show one optimizer solve
# per distinct budget requested (12 and 7.7).
serve-smoke:
	dune build bin/opprox_cli.exe
	@set -e; \
	DIR=$$(mktemp -d /tmp/opprox-smoke-XXXXXX); \
	SOCK=$$DIR/serve.sock; \
	OPX="dune exec --no-build bin/opprox_cli.exe --"; \
	$$OPX serve -j 2 --metrics-sexp --socket $$SOCK --models test/fixtures/trained_kmeans.sexp \
	  > $$DIR/serve.log 2>&1 & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true; rm -rf $$DIR' EXIT; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	[ -S $$SOCK ] || { echo "serve-smoke: daemon never bound $$SOCK"; exit 1; }; \
	$$OPX request kmeans --socket $$SOCK --budget 12 | grep -q "source: solved" \
	  || { echo "serve-smoke: cold request planned FAILED"; exit 1; }; \
	echo "serve-smoke: cold request planned (ok)"; \
	$$OPX request kmeans --socket $$SOCK --budget 12 | grep -q "source: cache" \
	  || { echo "serve-smoke: repeat served from cache FAILED"; exit 1; }; \
	echo "serve-smoke: repeat served from cache (ok)"; \
	if $$OPX request kmeans --socket $$SOCK --budget 150 >/dev/null 2>&1; then \
	  echo "serve-smoke: bad budget was NOT rejected"; exit 1; \
	else echo "serve-smoke: bad budget rejected (ok)"; fi; \
	if $$OPX request --socket $$SOCK --malformed >/dev/null 2>&1; then \
	  echo "serve-smoke: malformed frame was NOT rejected"; exit 1; \
	else echo "serve-smoke: malformed frame rejected (ok)"; fi; \
	PIDS=""; \
	for i in 1 2 3 4 5 6 7 8; do \
	  $$OPX request kmeans --socket $$SOCK --budget 7.7 > $$DIR/burst-$$i.out 2>&1 & \
	  PIDS="$$PIDS $$!"; \
	done; \
	for p in $$PIDS; do wait $$p || true; done; \
	[ "$$(grep -l "Plan for budget 7.7%" $$DIR/burst-*.out | wc -l)" -eq 8 ] \
	  || { echo "serve-smoke: burst of 8 identical requests all planned FAILED"; \
	       cat $$DIR/burst-*.out; exit 1; }; \
	echo "serve-smoke: burst of 8 identical requests all planned (ok)"; \
	kill -TERM $$SRV; \
	wait $$SRV || { echo "serve-smoke: daemon exited non-zero on SIGTERM"; \
	  cat $$DIR/serve.log; exit 1; }; \
	echo "serve-smoke: graceful drain on SIGTERM (ok)"; \
	[ ! -S $$SOCK ] || { echo "serve-smoke: socket file removed FAILED"; exit 1; }; \
	grep -q "(optimizer.solves counter 2)" $$DIR/serve.log \
	  || { echo "serve-smoke: one solve per distinct budget FAILED"; \
	       grep -o "(optimizer.solves [^)]*)" $$DIR/serve.log; exit 1; }; \
	echo "serve-smoke: one solve per distinct budget (ok)"; \
	echo "serve-smoke: ok"

# Corpus smoke test: precompute a tiny plan corpus for the committed
# kmeans fixture, serve it, and walk the whole lookup ladder over the
# wire: an on-grid request answers from the corpus, an off-grid one from
# the nearest-neighbour fallback, a below-grid one pays one solve and
# then hits the LRU, and after a SIGTERM drain a restarted daemon with
# --cache-restore answers the below-grid key from the restored cache.
corpus-smoke:
	dune build bin/opprox_cli.exe
	@set -e; \
	DIR=$$(mktemp -d /tmp/opprox-corpus-XXXXXX); \
	SOCK=$$DIR/serve.sock; \
	OPX="dune exec --no-build bin/opprox_cli.exe --"; \
	trap 'kill $$SRV 2>/dev/null || true; rm -rf $$DIR' EXIT; \
	$$OPX precompute --models test/fixtures/trained_kmeans.sexp \
	  --budgets 5,10,20 -o $$DIR/plans.opx; \
	$$OPX check --corpus $$DIR/plans.opx --models test/fixtures/trained_kmeans.sexp \
	  || { echo "corpus-smoke: corpus lints clean FAILED"; exit 1; }; \
	echo "corpus-smoke: corpus lints clean (ok)"; \
	$$OPX serve --socket $$SOCK --models test/fixtures/trained_kmeans.sexp \
	  --corpus $$DIR/plans.opx --cache-restore $$DIR/cache.sexp \
	  > $$DIR/serve.log 2>&1 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	[ -S $$SOCK ] || { echo "corpus-smoke: daemon never bound $$SOCK"; cat $$DIR/serve.log; exit 1; }; \
	$$OPX request kmeans --socket $$SOCK --budget 10 | grep -q "source: corpus" \
	  || { echo "corpus-smoke: on-grid request served from corpus FAILED"; exit 1; }; \
	echo "corpus-smoke: on-grid request served from corpus (ok)"; \
	$$OPX request kmeans --socket $$SOCK --budget 12 | grep -q "source: nn" \
	  || { echo "corpus-smoke: off-grid request served from nearest neighbour FAILED"; exit 1; }; \
	echo "corpus-smoke: off-grid request served from nearest neighbour (ok)"; \
	$$OPX request kmeans --socket $$SOCK --budget 4.2 | grep -q "source: solved" \
	  || { echo "corpus-smoke: below-grid request solved cold FAILED"; exit 1; }; \
	echo "corpus-smoke: below-grid request solved cold (ok)"; \
	$$OPX request kmeans --socket $$SOCK --budget 4.2 | grep -q "source: cache" \
	  || { echo "corpus-smoke: repeat served from LRU FAILED"; exit 1; }; \
	echo "corpus-smoke: repeat served from LRU (ok)"; \
	kill -TERM $$SRV; \
	wait $$SRV || { echo "corpus-smoke: daemon exited non-zero on SIGTERM"; cat $$DIR/serve.log; exit 1; }; \
	[ -s $$DIR/cache.sexp ] || { echo "corpus-smoke: no cache snapshot written"; exit 1; }; \
	echo "corpus-smoke: cache snapshot written on drain (ok)"; \
	$$OPX serve --socket $$SOCK --models test/fixtures/trained_kmeans.sexp \
	  --corpus $$DIR/plans.opx --cache-restore $$DIR/cache.sexp \
	  > $$DIR/serve2.log 2>&1 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	[ -S $$SOCK ] || { echo "corpus-smoke: restarted daemon never bound $$SOCK"; cat $$DIR/serve2.log; exit 1; }; \
	$$OPX request kmeans --socket $$SOCK --budget 4.2 | grep -q "source: cache" \
	  || { echo "corpus-smoke: restart answers from restored cache FAILED"; exit 1; }; \
	echo "corpus-smoke: restart answers from restored cache (ok)"; \
	kill -TERM $$SRV; wait $$SRV || true; \
	echo "corpus-smoke: ok"

# Pool scaling smoke test: a j2 pool must produce a bit-identical
# training dataset no slower (within tolerance) than a j1 pool, even on
# a single-core runner where the surplus worker parks under the active
# cap.  Fast enough for CI; the full gate runs under bench-snapshot.
pool-smoke:
	dune build bench/main.exe
	dune exec --no-build bench/main.exe -- --pool-smoke

# Concurrency smoke test: the seeded defect fixtures must each fail
# with their documented CONC code, and the deterministic self-exercise
# suite (pool stress, shardmap, plancache, server loopback under seeded
# interleaving widening) must report clean.
conc-smoke:
	dune build bin/opprox_cli.exe
	@for f in deadlock unguarded reentrant; do \
	  if dune exec --no-build bin/opprox_cli.exe -- check \
	       --conc-fixture $$f >/dev/null 2>&1; then \
	    echo "conc-smoke: $$f fixture was NOT flagged"; exit 1; \
	  else echo "conc-smoke: $$f fixture flagged (ok)"; fi; \
	done
	dune exec --no-build bin/opprox_cli.exe -- check --concurrency --strict
	@echo "conc-smoke: ok"

# Online-recontrol smoke test: on a small-scale bodytrack training
# (seconds, not minutes — same pipeline, trimmed inputs), the static
# plan must blow its budget on a perturbed input while the controlled
# run replans at a phase boundary and holds it; then the same scenario
# again with the replans streamed as telemetry frames to a serve
# daemon answering with plan deltas over a real socket.
control-smoke:
	dune build bin/opprox_cli.exe
	@set -e; \
	DIR=$$(mktemp -d /tmp/opprox-control-XXXXXX); \
	SOCK=$$DIR/serve.sock; \
	OPX="dune exec --no-build bin/opprox_cli.exe --"; \
	SMALL="-p 3 --inputs 2,16,3;3,24,4 --joint 4"; \
	trap 'kill $$SRV 2>/dev/null || true; rm -rf $$DIR' EXIT; \
	$$OPX train bodytrack $$SMALL -o $$DIR/bt.sexp >/dev/null 2>&1; \
	$$OPX run bodytrack $$SMALL -b 10 --perturb 1.5 --controlled \
	  > $$DIR/run.out 2>/dev/null; \
	grep -q "static:.*over budget" $$DIR/run.out \
	  || { echo "control-smoke: static plan did NOT violate its budget"; cat $$DIR/run.out; exit 1; }; \
	echo "control-smoke: static plan violates on the perturbed input (ok)"; \
	grep -Eq "controlled: [1-9][0-9]* replan\(s\), budget held" $$DIR/run.out \
	  || { echo "control-smoke: controlled run did not replan and hold"; cat $$DIR/run.out; exit 1; }; \
	echo "control-smoke: controlled run replanned and held the budget (ok)"; \
	$$OPX serve --socket $$SOCK --models $$DIR/bt.sexp > $$DIR/serve.log 2>&1 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	[ -S $$SOCK ] || { echo "control-smoke: daemon never bound $$SOCK"; cat $$DIR/serve.log; exit 1; }; \
	$$OPX run bodytrack $$SMALL -b 10 --perturb 1.5 --via $$SOCK \
	  > $$DIR/via.out 2>/dev/null; \
	grep -q "streaming telemetry via" $$DIR/via.out \
	  || { echo "control-smoke: run did not stream telemetry"; cat $$DIR/via.out; exit 1; }; \
	grep -Eq "controlled: [1-9][0-9]* replan\(s\), budget held" $$DIR/via.out \
	  || { echo "control-smoke: streamed recontrol did not replan and hold"; \
	       cat $$DIR/via.out $$DIR/serve.log; exit 1; }; \
	echo "control-smoke: streamed recontrol replanned and held the budget (ok)"; \
	kill -TERM $$SRV; wait $$SRV || true; \
	echo "control-smoke: ok"

# Stochastic-search smoke test: on a small-scale transformer training
# the multi-chain MCMC must plan the 9^13-point joint space (enumeration
# is infeasible there — the fallback the PLAN010 rule makes visible) in
# seconds with a lint-clean plan (opprox search exits non-zero on any
# PLAN/SRCH error), and the result must be bit-identical across repeat
# runs and across --jobs: chains are seeded by (seed, index), never by
# scheduling.  The same space through `opprox optimize` must take the
# optimizer's own dispatch to the search (PLAN010 naming it) and print
# the same plan at -j 1 and -j 2.
search-smoke:
	dune build bin/opprox_cli.exe
	@set -e; \
	DIR=$$(mktemp -d /tmp/opprox-search-XXXXXX); \
	trap 'rm -rf $$DIR' EXIT; \
	ARGS="search transformer -b 10 -p 2 --inputs 32,12,8 --joint 3 --chains 2 --iters 400 --seed 11"; \
	dune exec --no-build bin/opprox_cli.exe -- $$ARGS -j 1 > $$DIR/j1.out \
	  || { echo "search-smoke: search failed"; cat $$DIR/j1.out; exit 1; }; \
	grep -q "2541865828329 joint configs" $$DIR/j1.out \
	  || { echo "search-smoke: 9^13 joint space not reported"; cat $$DIR/j1.out; exit 1; }; \
	grep -q "predicted speedup" $$DIR/j1.out \
	  || { echo "search-smoke: no search stats line"; cat $$DIR/j1.out; exit 1; }; \
	echo "search-smoke: planned the 9^13 joint space, plan lint-clean (ok)"; \
	dune exec --no-build bin/opprox_cli.exe -- $$ARGS -j 1 > $$DIR/j1b.out; \
	cmp -s $$DIR/j1.out $$DIR/j1b.out \
	  || { echo "search-smoke: repeat run differs at the same seed"; \
	       diff $$DIR/j1.out $$DIR/j1b.out; exit 1; }; \
	echo "search-smoke: repeat run bit-identical (ok)"; \
	dune exec --no-build bin/opprox_cli.exe -- $$ARGS -j 4 > $$DIR/j4.out; \
	cmp -s $$DIR/j1.out $$DIR/j4.out \
	  || { echo "search-smoke: output differs between -j 1 and -j 4"; \
	       diff $$DIR/j1.out $$DIR/j4.out; exit 1; }; \
	echo "search-smoke: bit-identical across --jobs (ok)"; \
	dune exec --no-build bin/opprox_cli.exe -- train transformer -p 2 --inputs 32,12,8 \
	  --joint 3 -o $$DIR/tf.sexp > $$DIR/train.out \
	  || { echo "search-smoke: train failed"; cat $$DIR/train.out; exit 1; }; \
	for J in 1 2; do \
	  dune exec --no-build bin/opprox_cli.exe -- optimize transformer --load $$DIR/tf.sexp \
	    -b 10 -j $$J > $$DIR/opt-j$$J.out 2> $$DIR/opt-j$$J.err \
	    || { echo "search-smoke: optimize -j $$J failed"; cat $$DIR/opt-j$$J.err; exit 1; }; \
	done; \
	grep -q "PLAN010.*stochastic" $$DIR/opt-j1.err \
	  || { echo "search-smoke: optimize did not dispatch to the stochastic search"; \
	       cat $$DIR/opt-j1.err; exit 1; }; \
	cmp -s $$DIR/opt-j1.out $$DIR/opt-j2.out \
	  || { echo "search-smoke: optimize plan differs between -j 1 and -j 2"; \
	       diff $$DIR/opt-j1.out $$DIR/opt-j2.out; exit 1; }; \
	echo "search-smoke: optimize dispatched to the search, bit-identical across --jobs (ok)"; \
	echo "search-smoke: ok"

# Regenerate the committed corruption fixtures under test/fixtures/.
fixtures:
	dune exec test/gen_fixtures.exe

# Full experiment harness (reduced sampling).
bench:
	dune exec bench/main.exe -- --quick

# Regenerate the committed benchmark snapshots (BENCH_pool.json,
# BENCH_checkpoint.json, BENCH_obs.json, BENCH_serve.json,
# BENCH_corpus.json, BENCH_conc.json, BENCH_control.json, and
# BENCH_search.json) from the bechamel micro-suite.  Exits non-zero if
# the pool scaling gate fails (inverted scaling, or under 1.5x at j4 on
# a >= 4-core host), the corpus gate fails (corpus hit over 1.25x an
# LRU hit, or corpus/nn lookups over 0.2 ms), the conc gate
# fails (disabled-checker Dmutex lock/unlock more than 1.35x a bare
# Mutex), the control gate fails (the controller not reducing
# budget-violations vs the static plan on the perturbed-input suite,
# never replanning, re-simulating executed phases, or a suffix
# re-solve costing more than a controlled run), or the search gate
# fails (the stochastic solve on the transformer's 9^13 space — where
# enumeration is recorded as infeasible, never attempted — missing its
# wall-clock bound, differing across seeds or pool widths, or
# returning an infeasible or over-budget plan).
bench-snapshot:
	dune exec bench/main.exe -- --bechamel

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
