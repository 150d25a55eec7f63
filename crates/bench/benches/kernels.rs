//! Kernel throughput and the alignment performance gate.
//!
//! Microbenches the bit-parallel Myers Levenshtein against the classic DP,
//! interned Jaccard against the `HashSet` formulation, and the prepared
//! value path against the generic one. In measure mode (`cargo bench`) it
//! also writes `BENCH_kernels.json` at the repo root and **enforces** the
//! performance gates, each against a reference measured in the same run:
//!
//! * `prepared_similarity` over the attribute-value pairs of the blocked
//!   candidates must be ≥ 3x faster (median over repetitions) than
//!   `value_similarity` over the same raw typed value pairs — and return
//!   the same bits;
//! * at 4 threads, `paris_align` and `space_build` must be ≥ 3x over one
//!   thread — asserted only when `host_cores ≥ 4`, otherwise recorded as
//!   `scaling_gate: "skipped"` with `host_cores` (a 1-core sweep proves
//!   nothing and must say so);
//! * the `paris_functionality` pool's mean chunk time must exceed
//!   dispatch overhead (the chunk-size-floor regression guard).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use alex_core::{LinkSpace, SpaceConfig};
use alex_datagen::{generate_pair, Domain, Flavor, GeneratedPair, PairConfig, SideConfig};
use alex_linking::{candidate_pairs, BlockingConfig, Paris};
use alex_sim::{
    jaccard_tokens, levenshtein_dp, myers_levenshtein, prepared_similarity, typed_value,
    value_similarity, PreparedText, PreparedValue, TokenInterner, TypedValue,
};

/// Minimum median speedup of `prepared_similarity` over `value_similarity`
/// on the same value pairs.
const PREPARED_GATE: f64 = 3.0;

/// Repetitions of each timed region, alternated between the two paths.
const REPETITIONS: usize = 7;

/// Cap on the value pairs timed per repetition.
const MAX_VALUE_PAIRS: usize = 20_000;

/// Estimated per-chunk dispatch overhead (spawn amortization, cursor and
/// slot traffic, reassembly) — the floor a chunk's mean work must clear
/// for parallelism to pay.
const DISPATCH_OVERHEAD_US: f64 = 50.0;

/// The datagen profile shared with `space_build.rs` (seed 42, 120 shared /
/// 200 left-only / 60 right-only, Person+Drug, 0.25 confusable).
fn pair() -> GeneratedPair {
    generate_pair(&PairConfig {
        seed: 42,
        left: SideConfig {
            name: "L".into(),
            ns: "http://l.example.org/".into(),
            flavor: Flavor::Left,
            noise: 0.1,
            drop_prob: 0.12,
            sparse: false,
        },
        right: SideConfig {
            name: "R".into(),
            ns: "http://r.example.org/".into(),
            flavor: Flavor::Right,
            noise: 0.12,
            drop_prob: 0.12,
            sparse: false,
        },
        shared: 120,
        left_only: 200,
        right_only: 60,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Drug],
        left_extra_domains: Domain::ALL.to_vec(),
    })
}

const STRING_PAIRS: &[(&str, &str)] = &[
    ("LeBron James", "James, LeBron"),
    ("Quantum Meridian Systems", "Quantum Meridian Sys."),
    (
        "International Conference on Linked Data 2013",
        "Workshop on Linked Data 2013",
    ),
    // Cross the u64 block boundary: > 64 chars on both sides.
    (
        "A very long entity label that easily exceeds the sixty-four character single block limit",
        "Another very long entity label that also exceeds the sixty-four character block limit",
    ),
    ("Silverford", "North Silverford"),
];

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.bench_function("levenshtein_myers", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(myers_levenshtein(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("levenshtein_dp", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(levenshtein_dp(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("jaccard_hashset", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(jaccard_tokens(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("jaccard_interned", |b| {
        let mut interner = TokenInterner::new();
        let prepared: Vec<(PreparedText, PreparedText)> = STRING_PAIRS
            .iter()
            .map(|(x, y)| {
                (
                    PreparedText::prepare(x, &mut interner),
                    PreparedText::prepare(y, &mut interner),
                )
            })
            .collect();
        b.iter(|| {
            for (px, py) in &prepared {
                black_box(alex_sim::jaccard_ids(
                    black_box(px.token_ids()),
                    black_box(py.token_ids()),
                ));
            }
        })
    });
    g.bench_function("prepared_similarity_mixed", |b| {
        let pairs = value_pairs(&pair());
        let prepared = prepare_pairs(&pairs);
        b.iter(|| {
            for (x, y) in &prepared {
                black_box(prepared_similarity(black_box(x), black_box(y)));
            }
        })
    });
    g.finish();
    write_snapshot();
}

/// Mean microseconds per iteration of `f` over a small fixed batch, with
/// one unmeasured warm-up iteration.
fn mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_micros() as f64 / iters as f64
}

/// Every attribute-value pair of the first blocked candidate pairs, as
/// raw typed values: the comparisons PARIS and the space build make.
fn value_pairs(pair: &GeneratedPair) -> Vec<(TypedValue, TypedValue)> {
    let (left, right) = (&pair.left, &pair.right);
    let (li, ri) = (left.entity_index(), right.entity_index());
    let attrs = |ds: &alex_rdf::Dataset, term| -> Vec<TypedValue> {
        ds.graph()
            .matching(Some(term), None, None)
            .map(|t| typed_value(ds, t.object))
            .collect()
    };
    let mut out = Vec::new();
    for (l, r) in candidate_pairs(left, &li, right, &ri, &BlockingConfig::default()) {
        let (la, ra) = (attrs(left, li.term(l)), attrs(right, ri.term(r)));
        for x in &la {
            for y in &ra {
                out.push((x.clone(), y.clone()));
            }
        }
        if out.len() >= MAX_VALUE_PAIRS {
            break;
        }
    }
    out.truncate(MAX_VALUE_PAIRS);
    out
}

/// The same pairs prepared against one shared interner, as the linking
/// hot loops prepare them.
fn prepare_pairs(pairs: &[(TypedValue, TypedValue)]) -> Vec<(PreparedValue, PreparedValue)> {
    let mut interner = TokenInterner::new();
    pairs
        .iter()
        .map(|(x, y)| {
            (
                PreparedValue::prepare(x.clone(), &mut interner),
                PreparedValue::prepare(y.clone(), &mut interner),
            )
        })
        .collect()
}

/// Median, minimum and maximum of `xs`.
fn spread(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn write_snapshot() {
    // Wall-clock gates: only meaningful (and only worth the time) under
    // `cargo bench`, not the smoke pass.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let pair = pair();
    let cfg = SpaceConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Kernel micro-ratios on the mixed pair set (one long pair crosses the
    // u64 block boundary, so the multi-block path is in the mix).
    let myers_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(myers_levenshtein(black_box(x), black_box(y)));
        }
    });
    let dp_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(levenshtein_dp(black_box(x), black_box(y)));
        }
    });
    let mut interner = TokenInterner::new();
    let prepared: Vec<(PreparedText, PreparedText)> = STRING_PAIRS
        .iter()
        .map(|(x, y)| {
            (
                PreparedText::prepare(x, &mut interner),
                PreparedText::prepare(y, &mut interner),
            )
        })
        .collect();
    let jaccard_hash_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(jaccard_tokens(black_box(x), black_box(y)));
        }
    });
    let jaccard_interned_ns = mean_ns(2000, || {
        for (px, py) in &prepared {
            black_box(alex_sim::jaccard_ids(px.token_ids(), py.token_ids()));
        }
    });

    // Prepared vs generic value path on the same pairs, repetitions
    // alternated so host drift hits both alike.
    let raw_pairs = value_pairs(&pair);
    let prepared_pairs = prepare_pairs(&raw_pairs);
    for ((x, y), (px, py)) in raw_pairs.iter().zip(&prepared_pairs) {
        assert_eq!(
            prepared_similarity(px, py).to_bits(),
            value_similarity(x, y).to_bits(),
            "{x:?} vs {y:?}"
        );
    }
    let mut reference_us = Vec::with_capacity(REPETITIONS);
    let mut prepared_us = Vec::with_capacity(REPETITIONS);
    let mut speedups = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        let reference = mean_us(1, || {
            for (x, y) in &raw_pairs {
                black_box(value_similarity(black_box(x), black_box(y)));
            }
        });
        let prepared = mean_us(1, || {
            for (x, y) in &prepared_pairs {
                black_box(prepared_similarity(black_box(x), black_box(y)));
            }
        });
        reference_us.push(reference);
        prepared_us.push(prepared);
        speedups.push(reference / prepared);
    }
    let (reference_med, reference_min, reference_max) = spread(&mut reference_us);
    let (prepared_med, prepared_min, prepared_max) = spread(&mut prepared_us);
    let (speedup_med, speedup_min, speedup_max) = spread(&mut speedups);

    // Single-thread alignment and space build, for the record.
    alex_parallel::set_threads(1);
    let paris_1t_us = mean_us(3, || {
        black_box(Paris::new().link(&pair.left, &pair.right));
    });
    let space_1t_us = mean_us(5, || {
        black_box(LinkSpace::build(&pair.left, &pair.right, &cfg));
    });
    alex_parallel::set_threads(0);

    // 4-thread scaling gate — only meaningful with ≥ 4 real cores.
    let (scaling_gate, scaling_row) = if cores >= 4 {
        alex_parallel::set_threads(4);
        let paris_4t_us = mean_us(3, || {
            black_box(Paris::new().link(&pair.left, &pair.right));
        });
        let space_4t_us = mean_us(5, || {
            black_box(LinkSpace::build(&pair.left, &pair.right, &cfg));
        });
        alex_parallel::set_threads(0);
        let paris_scale = paris_1t_us / paris_4t_us;
        let space_scale = space_1t_us / space_4t_us;
        assert!(
            paris_scale >= 3.0,
            "paris_align 4-thread speedup {paris_scale:.2}x below the 3x gate"
        );
        assert!(
            space_scale >= 3.0,
            "space_build 4-thread speedup {space_scale:.2}x below the 3x gate"
        );
        (
            "passed",
            format!(
                ",\n  \"scaling\": {{\"paris_align_4t_us\": {paris_4t_us:.1}, \
                 \"paris_align_4t_speedup\": {paris_scale:.2}, \
                 \"space_build_4t_us\": {space_4t_us:.1}, \
                 \"space_build_4t_speedup\": {space_scale:.2}}}"
            ),
        )
    } else {
        ("skipped", String::new())
    };

    // Chunk-floor gate: the paris_functionality pool's mean chunk time
    // must exceed dispatch overhead (it was 22.5µs — 0.15 efficiency —
    // before the floor).
    alex_telemetry::timeline::enable();
    alex_parallel::set_threads(4);
    black_box(Paris::new().link(&pair.left, &pair.right));
    alex_parallel::set_threads(0);
    let traces = alex_telemetry::timeline::drain();
    alex_telemetry::timeline::disable();
    let attribution = alex_telemetry::attribute(&traces);
    let fun_chunk_us = attribution
        .pools
        .iter()
        .find(|p| p.pool == "paris_functionality")
        .map(|p| p.mean_chunk_us)
        .unwrap_or(0.0);
    assert!(
        fun_chunk_us > DISPATCH_OVERHEAD_US,
        "paris_functionality mean chunk {fun_chunk_us:.1}µs does not clear \
         dispatch overhead {DISPATCH_OVERHEAD_US}µs — chunk floor regressed"
    );

    assert!(
        speedup_med >= PREPARED_GATE,
        "prepared_similarity {prepared_med:.0}µs is only {speedup_med:.2}x over \
         value_similarity {reference_med:.0}µs on the same {} pairs — below the \
         {PREPARED_GATE}x gate",
        raw_pairs.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host_cores\": {cores},\n  \
         \"repetitions\": {REPETITIONS},\n  \
         \"value_pairs\": {},\n  \
         \"reference_value_similarity_us\": {{\"median\": {reference_med:.1}, \
         \"min\": {reference_min:.1}, \"max\": {reference_max:.1}}},\n  \
         \"prepared_similarity_us\": {{\"median\": {prepared_med:.1}, \
         \"min\": {prepared_min:.1}, \"max\": {prepared_max:.1}}},\n  \
         \"prepared_speedup\": {{\"median\": {speedup_med:.2}, \
         \"min\": {speedup_min:.2}, \"max\": {speedup_max:.2}}},\n  \
         \"prepared_gate\": {PREPARED_GATE:.1},\n  \
         \"paris_align_us\": {paris_1t_us:.1},\n  \
         \"space_build_us\": {space_1t_us:.1},\n  \
         \"scaling_gate\": \"{scaling_gate}\"{scaling_row},\n  \
         \"paris_functionality_mean_chunk_us\": {fun_chunk_us:.1},\n  \
         \"dispatch_overhead_us\": {DISPATCH_OVERHEAD_US:.1},\n  \
         \"kernels\": {{\n    \"myers_ns_per_sweep\": {myers_ns:.0},\n    \
         \"dp_ns_per_sweep\": {dp_ns:.0},\n    \
         \"myers_vs_dp_speedup\": {:.2},\n    \
         \"jaccard_hashset_ns_per_sweep\": {jaccard_hash_ns:.0},\n    \
         \"jaccard_interned_ns_per_sweep\": {jaccard_interned_ns:.0},\n    \
         \"jaccard_interned_speedup\": {:.2}\n  }}\n}}\n",
        raw_pairs.len(),
        dp_ns / myers_ns,
        jaccard_hash_ns / jaccard_interned_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
