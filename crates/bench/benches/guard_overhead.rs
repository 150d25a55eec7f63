//! Supervisor overhead: what wrapping the episode loop in `alex-guard`'s
//! budget supervision costs when every budget is disabled (unlimited).
//!
//! The supervision hot path with budgets off is a handful of comparisons
//! and one `Instant` read per episode boundary, so the honest price is the
//! *marginal* per-episode difference between a plain and a supervised run
//! (runs of 2 and 10 episodes, differenced, so fixed per-run work cancels
//! — same method as `store_overhead`). The measured difference is noise
//! around zero, so it is reported *signed*, per repetition: a negative
//! overhead means the supervised runs happened to be faster, and the
//! spread across repetitions is the noise floor the median must be read
//! against.
//!
//! In measure mode (`cargo bench`) this target also writes
//! `BENCH_guard.json` at the repo root and asserts the 2% budget on the
//! signed median so regressions show up in review diffs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use alex_core::{driver, Agent, AlexConfig, LinkSpace, OracleFeedback, SpaceConfig};
use alex_datagen::{generate_pair, Domain, Flavor, GeneratedPair, PairConfig, SideConfig};
use alex_guard::{BreachPolicy, Budget, Supervisor};

const SHORT_EPISODES: usize = 2;
const LONG_EPISODES: usize = 10;
const EPISODE_SIZE: usize = 3000;
const OVERHEAD_BUDGET: f64 = 0.02;
/// Independent overhead measurements, each with its own four timed runs.
const REPETITIONS: usize = 5;

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
        shared: 600,
        left_only: 700,
        right_only: 200,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: Domain::ALL.to_vec(),
    })
}

struct Fixture {
    space: LinkSpace,
    truth: HashSet<(u32, u32)>,
    initial: Vec<(u32, u32)>,
}

fn fixture() -> Fixture {
    let pair = pair();
    let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
    let truth: HashSet<(u32, u32)> = pair
        .ground_truth
        .iter()
        .filter_map(|&(l, r)| Some((space.left_index().id(l)?, space.right_index().id(r)?)))
        .collect();
    let mut initial: Vec<(u32, u32)> = truth.iter().copied().collect();
    initial.sort_unstable();
    initial.truncate(initial.len() * 2 / 5);
    Fixture {
        space,
        truth,
        initial,
    }
}

fn cfg(max_episodes: usize) -> AlexConfig {
    AlexConfig {
        episode_size: EPISODE_SIZE,
        max_episodes,
        ..AlexConfig::default()
    }
}

/// Plain run; noisy oracle so the run executes exactly `max_episodes`.
fn run_plain(fx: &Fixture, max_episodes: usize) -> usize {
    let mut agent = Agent::new(fx.space.clone(), &fx.initial, cfg(max_episodes));
    let mut oracle = OracleFeedback::with_error_rate(fx.truth.clone(), 0.1, 9);
    driver::run(&mut agent, &mut oracle, &fx.truth)
        .episodes
        .len()
}

/// The same run under an unlimited-budget supervisor — the disabled-mode
/// configuration whose overhead this bench prices.
fn run_supervised(fx: &Fixture, max_episodes: usize) -> usize {
    let mut agent = Agent::new(fx.space.clone(), &fx.initial, cfg(max_episodes));
    let mut oracle = OracleFeedback::with_error_rate(fx.truth.clone(), 0.1, 9);
    let mut sup = Supervisor::new(Budget::unlimited(), BreachPolicy::Stop);
    let report = driver::run_with(&mut agent, &mut oracle, &fx.truth, None, Some(&mut sup))
        .expect("non-durable run cannot fail");
    assert_eq!(sup.breaches(), 0, "unlimited budget must never breach");
    report.episodes.len()
}

fn bench_guard_overhead(c: &mut Criterion) {
    let fx = fixture();

    let mut g = c.benchmark_group("guard_overhead");
    g.sample_size(10);
    g.bench_function("plain_run_10_episodes", |b| {
        b.iter(|| black_box(run_plain(&fx, LONG_EPISODES)))
    });
    g.bench_function("supervised_run_10_episodes", |b| {
        b.iter(|| black_box(run_supervised(&fx, LONG_EPISODES)))
    });
    g.finish();

    write_bench_snapshot(&fx);
}

/// Mean microseconds per iteration of `f` over a small fixed batch.
fn mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    // One unmeasured warm-up iteration.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_micros() as f64 / iters as f64
}

/// Median of `xs`, leaving `xs` sorted.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn write_bench_snapshot(fx: &Fixture) {
    // Wall-clock measurement; only meaningful under `cargo bench`.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let span = (LONG_EPISODES - SHORT_EPISODES) as f64;
    let mut plain_us = Vec::with_capacity(REPETITIONS);
    let mut supervised_us = Vec::with_capacity(REPETITIONS);
    let mut overheads = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        let plain_short = mean_us(3, || {
            black_box(run_plain(fx, SHORT_EPISODES));
        });
        let sup_short = mean_us(3, || {
            black_box(run_supervised(fx, SHORT_EPISODES));
        });
        let plain_long = mean_us(3, || {
            assert_eq!(
                black_box(run_plain(fx, LONG_EPISODES)),
                LONG_EPISODES,
                "run must not converge early"
            );
        });
        let sup_long = mean_us(3, || {
            black_box(run_supervised(fx, LONG_EPISODES));
        });
        let plain_per_episode = (plain_long - plain_short) / span;
        let sup_per_episode = (sup_long - sup_short) / span;
        plain_us.push(plain_per_episode);
        supervised_us.push(sup_per_episode);
        overheads.push((sup_per_episode - plain_per_episode) / plain_per_episode);
    }
    let plain_per_episode = median(&mut plain_us);
    let sup_per_episode = median(&mut supervised_us);
    let overhead = median(&mut overheads);
    let (overhead_min, overhead_max) = (overheads[0], overheads[REPETITIONS - 1]);
    assert!(
        overhead < OVERHEAD_BUDGET,
        "disabled supervision must stay under {:.0}% of episode time: \
         median plain {plain_per_episode:.1}us, supervised {sup_per_episode:.1}us \
         ({:.2}%, repetitions {:.2}%..{:.2}%)",
        OVERHEAD_BUDGET * 100.0,
        overhead * 100.0,
        overhead_min * 100.0,
        overhead_max * 100.0
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"guard_overhead\",\n  \"host_cores\": {cores},\n  \
         \"episode_size\": {EPISODE_SIZE},\n  \"repetitions\": {REPETITIONS},\n  \
         \"plain_episode_us\": {plain_per_episode:.1},\n  \
         \"supervised_episode_us\": {sup_per_episode:.1},\n  \
         \"overhead_frac\": {{\"median\": {overhead:.4}, \"min\": {overhead_min:.4}, \
         \"max\": {overhead_max:.4}}},\n  \"budget_frac\": {OVERHEAD_BUDGET}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_guard.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_guard_overhead);
criterion_main!(benches);
