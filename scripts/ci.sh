#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> panic-free gate (unwrap/expect banned in federation, alex-core, alex-store, alex-cache)"
# The federation modules carry #[deny(clippy::unwrap_used, clippy::expect_used)]
# (see crates/sparql/src/federation/mod.rs), and alex-core / alex-store /
# alex-cache deny the same lints crate-wide (see their lib.rs); these runs
# fail the build if a new unwrap/expect sneaks into the fault-handling,
# durability, or caching paths.
cargo clippy -p alex-sparql -- -D warnings
cargo clippy -p alex-core -- -D warnings
cargo clippy -p alex-store -- -D warnings
cargo clippy -p alex-cache -- -D warnings
# The profiling layer (timeline/trace/attribution/report modules) carries
# the same per-module deny, so the exporter and aggregators stay panic-free.
cargo clippy -p alex-telemetry -- -D warnings
# The trust subsystem gates every feedback-driven mutation; it must stay
# panic-free too (crate-wide unwrap/expect deny, see crates/trust/src/lib.rs).
cargo clippy -p alex-trust -- -D warnings
# The similarity kernels and the deterministic pool are the alignment hot
# path: the bit-parallel/interned/char-slice kernels and the work-stealing
# scheduler must stay warning-free.
cargo clippy -p alex-sim -- -D warnings
cargo clippy -p alex-parallel -- -D warnings
# The supervisor layer (budgets, breach policy, degraded bookkeeping) and
# the bench harness complete the crate-by-crate -D warnings coverage.
cargo clippy -p alex-guard -- -D warnings
cargo clippy -p alex-bench -- -D warnings

echo "==> cargo test (ALEX_THREADS=1: deterministic pool runs inline)"
# The workspace run covers every suite, so none is re-run on its own:
# - kernel equivalence properties (alex-sim, alex-linking `properties`): the
#   fast kernels stay bitwise-equal to their slow oracles (multi-block,
#   combining-mark, and empty inputs; prepared ≡ generic value dispatch in
#   both argument orders) and PARIS alignment stays byte-identical across
#   thread counts;
# - chaos_federation: seeded fault injection over the full improve loop;
# - cache_differential: the answer cache is behaviorally invisible, and
#   random link mutations are checked against a from-scratch oracle;
# - fuzz_sparql: hard-coded seeds, so a deterministic budget of
#   parse/serialize fixpoint, fingerprint, and sameAs-rewrite properties;
# - federation_differential / federation_recall: catalog-pruned dispatch is
#   byte-identical to broadcast, rewritten executions match plain ones and
#   never serve stale answers, and recall rises with the closure while
#   pruned traffic stays below broadcast;
# - trace_report: --trace validity, PARIS worker nesting, alex report;
# - adversarial_trust: the trust gate holds F against a 30% targeted
#   poisoner mix, defers low-trust votes, and exports its counters;
# - panic_chaos: quarantined chunk panics replay byte-identically (the test
#   itself sweeps --threads 1/2/4/8);
# - composed_chaos: storage faults + poisoners + faulty federation, crash
#   and resume onto the uninterrupted reference.
ALEX_THREADS=1 cargo test --workspace -q

echo "==> cargo test (ALEX_THREADS=4: same suite, parallel pool)"
# The pool's ordered reduction makes results byte-identical at any width,
# so the whole suite must pass unchanged with 4 workers.
ALEX_THREADS=4 cargo test --workspace -q

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench --workspace --no-run -q

echo "==> kernel bench compiles (throughput gate target)"
cargo bench -p alex-bench --bench kernels --no-run -q

echo "==> federation selectivity bench compiles (sub-query reduction gate target)"
cargo bench -p alex-bench --bench federation_selectivity --no-run -q

echo "==> kill-and-resume smoke (SIGKILL mid-run, --resume, diff vs reference)"
# An improve run is SIGKILLed at an episode commit, resumed with --resume,
# and its final links must be byte-identical to an uninterrupted reference.
cargo build -q --bin alex
ALEX=target/debug/alex
SMOKE=$(mktemp -d -t alex-ci-resume.XXXXXX)
trap 'rm -rf "$SMOKE"' EXIT
"$ALEX" gen --out-dir "$SMOKE" --pair nba --seed 7
improve() {
  "$ALEX" improve "$SMOKE/left.nt" "$SMOKE/right.nt" \
    --links "$SMOKE/truth.nt" --truth "$SMOKE/truth.nt" \
    --episodes 6 --episode-size 30 --error-rate 0.1 "$@"
}
improve --state-dir "$SMOKE/state-ref" --out "$SMOKE/ref.nt" --threads 1
# `kill -9` at the 2nd commit: the run must die by signal, not exit cleanly.
if improve --state-dir "$SMOKE/state-cut" --kill-after 2 --threads 4; then
  echo "kill-and-resume smoke: run survived --kill-after 2" >&2
  exit 1
fi
improve --state-dir "$SMOKE/state-cut" --resume --out "$SMOKE/resumed.nt" --threads 4
cmp "$SMOKE/ref.nt" "$SMOKE/resumed.nt" \
  || { echo "kill-and-resume smoke: resumed links differ from reference" >&2; exit 1; }
echo "resumed links byte-identical to uninterrupted reference"

echo "==> trace-schema smoke (--trace under --threads 4, validated via alex report)"
# The emitted Chrome trace must pass structural validation: balanced B/E
# per thread and every pool chunk span enclosed by its dispatch span.
improve --out "$SMOKE/traced.nt" --threads 4 \
  --trace "$SMOKE/trace.json" --profile 2> "$SMOKE/profile.err"
grep -q "phase" "$SMOKE/profile.err" \
  || { echo "trace-schema smoke: --profile printed no attribution table" >&2; exit 1; }
"$ALEX" report --check-trace "$SMOKE/trace.json"

echo "CI OK"
