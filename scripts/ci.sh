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
ALEX_THREADS=1 cargo test --workspace -q

echo "==> cargo test (ALEX_THREADS=4: same suite, parallel pool)"
# The pool's ordered reduction makes results byte-identical at any width,
# so the whole suite must pass unchanged with 4 workers.
ALEX_THREADS=4 cargo test --workspace -q

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench --workspace --no-run -q

echo "==> kernel equivalence properties (myers ≡ DP, interned ≡ string jaccard, char-slice jaro-winkler/levenshtein/token kernels ≡ string measures, prepared_similarity ≡ value_similarity)"
# The fast kernels must stay bitwise-equal to their slow oracles, including
# multi-block (>64 chars), combining-mark and empty inputs; the prepared
# value path must equal the generic dispatch on mixed-kind pairs in both
# argument orders; and PARIS alignment must stay byte-identical across
# thread counts.
cargo test -p alex-sim --test properties -q
cargo test -p alex-linking --test properties -q

echo "==> kernel bench compiles (throughput gate target)"
cargo bench -p alex-bench --bench kernels --no-run -q

echo "==> chaos suite (seeded fault injection over the full improve loop)"
cargo test --test chaos_federation -q

echo "==> cache differential suite (cached vs uncached byte-identity, shadow-oracle invalidation)"
# The answer cache must be behaviorally invisible: improve/query output is
# compared cached-vs-uncached across --threads 1/4 and fault profiles, and
# random link-mutation sequences are checked against a from-scratch oracle.
cargo test --test cache_differential -q

echo "==> SPARQL fuzz (fixed seed budget: ~4k structured + ~6k mutated + ~1.5k rewrite inputs)"
# Seeds are hard-coded in the test file, so this budget is deterministic;
# no-panic, parse/serialize fixpoint (UNION included), fingerprint-invariance
# (incl. union-branch reordering), and sameAs-rewrite idempotence properties.
cargo test --test fuzz_sparql -q

echo "==> smarter-federation differential + recall suites (ALEX_THREADS=1 and 4)"
# Catalog-pruned dispatch must be byte-identical to broadcast across seeds,
# cache settings, and fault profiles; rewritten executions must match plain
# ones and never serve stale cached answers after a closure change; and the
# recall/traffic experiment must show recall rising with the closure while
# pruned traffic stays below broadcast (>= 30% reduction at full closure).
ALEX_THREADS=1 cargo test --test federation_differential -q
ALEX_THREADS=4 cargo test --test federation_differential -q
ALEX_THREADS=1 cargo test --test federation_recall -q
ALEX_THREADS=4 cargo test --test federation_recall -q

echo "==> federation selectivity bench compiles (sub-query reduction gate target)"
cargo bench -p alex-bench --bench federation_selectivity --no-run -q

echo "==> trace & report suite (--trace validity, PARIS worker nesting, alex report)"
cargo test --test trace_report -q

echo "==> adversarial-feedback suite (trust gate vs seeded poisoners, quorum deferral, thread invariance)"
# A 30% targeted-poisoner mix must not move the gated run's F while the
# ungated run collapses; deferred votes stay buffered; output is
# byte-identical across thread counts and the trust counters export.
cargo test --test adversarial_trust -q

echo "==> panic-chaos suite (quarantined chunk panics + WAL replay, byte-identity at 1 and 4 threads)"
# Seeded chunk panics are quarantined by the pool and re-executed
# sequentially; a suspended run is resumed through the WAL. Output must be
# byte-identical to the undisturbed reference at every pool width (the
# test itself sweeps --threads 1/2/4/8; the env var pins the default width
# for everything around it).
ALEX_THREADS=1 cargo test --test panic_chaos -q
ALEX_THREADS=4 cargo test --test panic_chaos -q

echo "==> composed-chaos suite (storage faults + poisoners + faulty federation, crash & resume)"
# All fault domains in one durable loop: a torn journal write kills
# the run mid-attack, recovery + resume must land on the uninterrupted
# reference's exact links, admission log, and trust posteriors — plus the
# chaos gate (chunk panics + stalls + silent store faults + flaky
# federation under quarantine) and the CLI SIGKILL legs.
cargo test --test composed_chaos -q

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
