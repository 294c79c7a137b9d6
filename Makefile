# One-command tier-1 verification: build + tests (including the trace
# determinism suite in test/test_obs.ml) + formatting check.

.PHONY: check build test fmt fmt-fix bench bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke clean

check: build test fmt bench-compare e12-smoke e13-smoke admission-smoke vopr-smoke blackbox-smoke repl-smoke

build:
	dune build @all

test:
	dune runtest

# ocamlformat may be absent in minimal containers; skip (with a notice)
# rather than fail the whole check.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt || { echo "fmt check failed: run 'make fmt-fix'"; exit 1; }; \
	else \
		echo "ocamlformat not installed; skipping fmt check"; \
	fi

fmt-fix:
	dune fmt

bench:
	dune exec bench/main.exe

# Regression gate for the simulated cost model: regenerate the seeded
# baseline suite (well under a second) and compare the committed
# BENCH_baseline.json against the fresh run; any tracked metric that
# regressed beyond the compare tolerance, or went missing, fails the check.
bench-compare:
	dune exec bench/main.exe -- --baseline /tmp/bench-compare.json > /dev/null
	dune exec bench/main.exe -- --compare BENCH_baseline.json /tmp/bench-compare.json

# E12 head-to-head: all five design points (incl. the lin snapshot
# iterator) on quiet + churn workloads, every row judged by the
# parametric checker.  The gate demands conforming verdicts present
# and no VIOLATES cell anywhere in the table.
e12-smoke:
	dune exec bench/main.exe -- --e12 | tee /tmp/e12-smoke.out
	@grep -q "conforms" /tmp/e12-smoke.out \
	  || { echo "e12-smoke: no verdicts in E12 output"; exit 1; }
	@! grep -q "VIOLATES" /tmp/e12-smoke.out \
	  || { echo "e12-smoke: E12 reported a spec violation"; exit 1; }

# Short open-loop saturation sweep: every design point must detect a
# finite knee, and the curves JSON must be byte-identical across reruns
# (the determinism contract behind --curves-json).  The full-size sweep
# runs via `bench/main.exe -- --e13`; this scaled-down config keeps the
# smoke under a few seconds.
e13-smoke:
	dune exec bench/main.exe -- --e13 --load-clients 16 --load-duration 100 \
	  --curves-json curves.json | tee /tmp/e13-smoke.out
	@grep -q "KNEE" /tmp/e13-smoke.out \
	  || { echo "e13-smoke: no knee detected in E13 output"; exit 1; }
	@! grep -q '"knee":null' curves.json \
	  || { echo "e13-smoke: a design point has no knee in curves.json"; exit 1; }
	dune exec bench/main.exe -- --e13 --load-clients 16 --load-duration 100 \
	  --curves-json /tmp/e13-smoke-2.json > /dev/null
	@cmp -s curves.json /tmp/e13-smoke-2.json \
	  || { echo "e13-smoke: curves.json is not byte-identical across reruns"; exit 1; }

# E13b admission on/off ladder at smoke size: the run itself asserts the
# overload-survival contract (admission-on knee no earlier than off, zero
# sheds below the knee, p999 strictly lower at saturation) and prints
# ADMISSION PASS; the rerun must produce byte-identical curves, and the
# trace must render a non-empty overload anatomy (sheds by class).
admission-smoke:
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json admission-curves.json --trace-jsonl /tmp/admission-smoke.jsonl \
	  | tee /tmp/admission-smoke.out
	@grep -q "ADMISSION PASS" /tmp/admission-smoke.out \
	  || { echo "admission-smoke: E13b assertions did not pass"; exit 1; }
	dune exec bench/main.exe -- --e13 --admission --load-clients 16 --load-duration 100 \
	  --curves-json /tmp/admission-smoke-2.json > /dev/null
	@cmp -s admission-curves.json /tmp/admission-smoke-2.json \
	  || { echo "admission-smoke: admission-curves.json is not byte-identical across reruns"; exit 1; }
	dune exec bin/weakset_trace.exe -- saturation --overload /tmp/admission-smoke.jsonl \
	  | tee /tmp/admission-smoke-trace.out > /dev/null
	@grep -q "server sheds by op class" /tmp/admission-smoke-trace.out \
	  || { echo "admission-smoke: trace rendered no shed anatomy"; exit 1; }

# Bounded VOPR swarm: 32 seed-derived scenarios (virtual-time budgets keep
# this well under a minute of wall clock), plus the mutation tests — the
# planted bugs the runner reaches (grow-only-drop, the cache's
# inval-drop, and axiom-flip in the parametric checker) must each be
# caught within the same seed range.  Repro bundles for any failure land
# in vopr-bundles/ (CI uploads them).
vopr-smoke:
	rm -rf vopr-bundles && mkdir -p vopr-bundles
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --bundle-dir vopr-bundles --quiet
	for m in grow-only-drop inval-drop axiom-flip; do \
	  dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --mutation $$m --no-shrink --quiet; \
	  test $$? -eq 1 || { echo "vopr-smoke: mutation $$m was NOT detected"; exit 1; }; \
	done

# Replication-group cluster scenarios: the full table (every row run
# twice, digests byte-identical — including the retry-storm and
# shed-under-partition overload rows) must pass; the view-change-drop
# mutation must be caught by the oracle's commit-safety verdicts, and
# shed-after-apply by its shed-divergence verdict.  Repro bundles for
# any failing row land in repl-bundles/ (CI uploads them); replay one
# with `weakset_vopr replay`, or re-run a row with `scenarios --only NAME`.
# A row's bundle is a plan bundle like any other: one of the
# view-change-drop convictions (bundled in repl-mutation-bundles/) must
# replay on its own.
repl-smoke:
	rm -rf repl-bundles && mkdir -p repl-bundles
	dune exec bin/weakset_vopr.exe -- scenarios --bundle-dir repl-bundles --quiet
	rm -rf repl-mutation-bundles && mkdir -p repl-mutation-bundles
	dune exec bin/weakset_vopr.exe -- scenarios --mutation view-change-drop \
	  --bundle-dir repl-mutation-bundles --quiet; \
	  test $$? -eq 1 || { echo "repl-smoke: mutation view-change-drop was NOT detected"; exit 1; }
	dune exec bin/weakset_vopr.exe -- replay \
	  "$$(ls repl-mutation-bundles/scenario-*.json | head -n 1)" \
	  || { echo "repl-smoke: a view-change-drop row bundle did not replay"; exit 1; }
	dune exec bin/weakset_vopr.exe -- scenarios --only retry-storm --mutation shed-after-apply --quiet; \
	  test $$? -eq 1 || { echo "repl-smoke: mutation shed-after-apply was NOT detected"; exit 1; }

# Flight-recorder end-to-end: a run with a planted bug armed must trigger
# at least one black-box dump, and rendering the dumps must resolve at
# least one tail exemplar back to a full span tree.
blackbox-smoke:
	rm -rf blackbox-dumps && mkdir -p blackbox-dumps
	dune exec bin/weakset_vopr.exe -- run --seeds 0..32 --mutation grow-only-drop --no-shrink \
	  --quiet --blackbox-dir blackbox-dumps; \
	  test $$? -eq 1 || { echo "blackbox-smoke: mutation grow-only-drop was NOT detected"; exit 1; }
	@ls blackbox-dumps/blackbox-seed-*.json >/dev/null 2>&1 \
	  || { echo "blackbox-smoke: no black-box dump was written"; exit 1; }
	dune exec bin/weakset_trace.exe -- blackbox blackbox-dumps/blackbox-seed-*.json \
	  | tee /tmp/blackbox-smoke.out
	@grep -q "exemplar span tree" /tmp/blackbox-smoke.out \
	  || { echo "blackbox-smoke: no exemplar resolved to a span tree"; exit 1; }

clean:
	dune clean
