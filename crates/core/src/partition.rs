//! Equal-size partitioning and the parallel partitioned driver (§6.2).
//!
//! The larger (left) data set is split round-robin — "the i-th entity is in
//! partition i mod n" — and feature sets are generated between each
//! partition and the whole smaller data set. Partitions are independent, so
//! they run in parallel threads. Each global episode's feedback budget is
//! split across partitions in proportion to their candidate counts (feedback
//! is "directed to all partitions"); metrics are aggregated over the union
//! of the partitions' candidate sets.

use std::collections::HashSet;
use std::time::Duration;

use alex_rdf::{Dataset, Term};
use alex_telemetry::span;

use crate::agent::{Agent, EpisodeSummary};
use crate::config::AlexConfig;
use crate::driver::{
    begin_episode, change_fraction, convergence, emit_episode_end, score_episode, StopReason,
};
use crate::feedback::OracleFeedback;
use crate::metrics::{EpisodeReport, Quality};
use crate::space::{LinkSpace, PairId, SpaceConfig, SpaceInputs};

/// Configuration for a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Number of equal-size partitions (the paper uses 27).
    pub partitions: usize,
    /// Agent configuration. `episode_size` is the *global* per-episode
    /// feedback budget, split across partitions.
    pub alex: AlexConfig,
    /// Space construction configuration (its `partition` field is ignored:
    /// every partition's space is built internally).
    pub space: SpaceConfig,
    /// Oracle error rate (Appendix C uses 0.10).
    pub feedback_error_rate: f64,
}

impl Default for PartitionedConfig {
    fn default() -> Self {
        PartitionedConfig {
            partitions: 4,
            alex: AlexConfig::default(),
            space: SpaceConfig::default(),
            feedback_error_rate: 0.0,
        }
    }
}

/// Per-partition trace: the partition's own episode reports (scored against
/// its local slice of the ground truth — the paper's Fig. 7(b)/(c) views).
#[derive(Debug, Clone)]
pub struct PartitionTrace {
    /// Partition index.
    pub partition: usize,
    /// Local per-episode reports.
    pub episodes: Vec<EpisodeReport>,
    /// Total time this partition spent processing.
    pub total_duration: Duration,
}

/// The result of a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Aggregate quality of the initial candidate set.
    pub initial_quality: Quality,
    /// Aggregated per-episode reports (union of partitions).
    pub episodes: Vec<EpisodeReport>,
    /// Per-partition traces.
    pub per_partition: Vec<PartitionTrace>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// First episode at which the aggregate change dropped below the
    /// relaxed threshold.
    pub relaxed_converged_at: Option<usize>,
    /// The union of the partitions' final candidate links, as
    /// `(left term, right term)` pairs — the improved link set a caller
    /// exports.
    pub final_links: Vec<(Term, Term)>,
    /// Wall-clock duration of the slowest partition (the paper's reported
    /// "execution time", §7.3).
    pub slowest_partition: Duration,
    /// Mean of the partitions' processing times.
    pub mean_partition: Duration,
    /// Total wall-clock duration of the whole run.
    pub total_duration: Duration,
}

impl PartitionedRun {
    /// Final aggregate quality.
    pub fn final_quality(&self) -> Quality {
        self.episodes
            .last()
            .map(|e| e.quality)
            .unwrap_or(self.initial_quality)
    }
}

struct PartitionState {
    index: usize,
    agent: Agent,
    oracle: OracleFeedback,
    prev: HashSet<PairId>,
    local_truth: HashSet<(u32, u32)>,
    episodes: Vec<EpisodeReport>,
    total_duration: Duration,
}

impl PartitionState {
    /// Run one episode round with the given feedback quota; returns the
    /// partition's episode report and how many of its links changed.
    fn run_round(&mut self, quota: usize) -> (EpisodeReport, usize) {
        // Runs on a worker thread, so the span roots its own path there.
        let round_span = span("partition_round");
        let summary = self.agent.run_episode_sized(&mut self.oracle, quota);
        let duration = round_span.elapsed();
        self.total_duration += duration;
        let (report, changed) = score_episode(
            &self.agent,
            &self.local_truth,
            &mut self.prev,
            self.episodes.len() + 1,
            &summary,
            duration,
            false,
        );
        self.episodes.push(report.clone());
        (report, changed)
    }
}

/// Run `job` on its own scoped thread for every item; results come back in
/// item order, and a panicking job re-raises on the caller.
fn on_threads<I, R, F>(items: I, job: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    std::thread::scope(|s| {
        let job = &job;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || job(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Run ALEX over `partitions` equal-size partitions in parallel.
///
/// `initial` and `truth` are `(left term, right term)` pairs (as produced by
/// a linker and the ground truth respectively).
pub fn run_partitioned(
    left: &Dataset,
    right: &Dataset,
    initial: &[(Term, Term)],
    truth: &[(Term, Term)],
    cfg: &PartitionedConfig,
) -> PartitionedRun {
    assert!(cfg.partitions > 0, "at least one partition");
    let run_span = span("improve_partitioned");
    let n = cfg.partitions;

    // Indexes, prepared values and blocked candidates depend only on the
    // data sets: prepare them once and share them with every partition's
    // space. Each space keeps its own partition's candidates in blocking
    // order, so it is exactly the space `LinkSpace::build` would give it.
    let build_span = span("build_spaces");
    let inputs = SpaceInputs::prepare(left, right, &cfg.space.blocking);

    // Global id mapping (identical in every partition's space).
    let to_ids = |pairs: &[(Term, Term)]| -> Vec<(u32, u32)> {
        pairs
            .iter()
            .filter_map(|&(l, r)| Some((inputs.left_index().id(l)?, inputs.right_index().id(r)?)))
            .collect()
    };
    let initial_ids = to_ids(initial);
    let truth_ids: HashSet<(u32, u32)> = to_ids(truth).into_iter().collect();

    // Build spaces in parallel, one per partition.
    let spaces = on_threads(0..n, |i| {
        LinkSpace::from_inputs(&inputs, cfg.space.theta, Some((i, n)))
    });
    drop(inputs);
    drop(build_span);

    // Assemble partition states.
    let mut states: Vec<PartitionState> = spaces
        .into_iter()
        .enumerate()
        .map(|(i, space)| {
            let local_initial: Vec<(u32, u32)> = initial_ids
                .iter()
                .copied()
                .filter(|&(l, _)| l as usize % n == i)
                .collect();
            let local_truth: HashSet<(u32, u32)> = truth_ids
                .iter()
                .copied()
                .filter(|&(l, _)| l as usize % n == i)
                .collect();
            let mut alex_cfg = cfg.alex.clone();
            alex_cfg.seed = cfg.alex.seed.wrapping_add(i as u64);
            let agent = Agent::new(space, &local_initial, alex_cfg);
            let prev = agent.candidates().snapshot();
            let oracle = OracleFeedback::with_error_rate(
                truth_ids.clone(),
                cfg.feedback_error_rate,
                cfg.alex.seed.wrapping_add(1000 + i as u64),
            );
            PartitionState {
                index: i,
                agent,
                oracle,
                prev,
                local_truth,
                episodes: Vec::new(),
                total_duration: Duration::ZERO,
            }
        })
        .collect();

    // Initial aggregate quality.
    let (correct, candidates) = states.iter().fold((0, 0), |(correct, candidates), st| {
        let (c, _) = Quality::evaluate_counted(st.agent.candidates(), st.agent.space(), &truth_ids);
        (correct + c, candidates + st.agent.candidates().len())
    });
    let initial_quality = Quality::from_counts(correct, candidates, truth_ids.len());

    let mut episodes: Vec<EpisodeReport> = Vec::new();
    let mut relaxed_converged_at = None;
    let mut stop = StopReason::MaxEpisodes;

    for episode in 1..=cfg.alex.max_episodes {
        let _episode_span = begin_episode(episode);
        // Quotas proportional to candidate counts.
        let counts: Vec<usize> = states.iter().map(|s| s.agent.candidates().len()).collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            stop = StopReason::NoFeedback;
            break;
        }
        let mut quotas: Vec<usize> = counts
            .iter()
            .map(|&c| cfg.alex.episode_size * c / total)
            .collect();
        let mut assigned: usize = quotas.iter().sum();
        // Distribute the rounding remainder to the largest partitions.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut oi = 0;
        while assigned < cfg.alex.episode_size {
            let i = order[oi % n];
            if counts[i] > 0 {
                quotas[i] += 1;
                assigned += 1;
            }
            oi += 1;
            if oi > 4 * n {
                break; // all partitions empty of candidates
            }
        }

        // Run the round in parallel.
        let round = on_threads(states.iter_mut().zip(quotas.iter()), |(st, &quota)| {
            st.run_round(quota)
        });

        // Aggregate.
        let changed: usize = round.iter().map(|(_, changed)| changed).sum();
        let sum = |field: fn(&EpisodeReport) -> usize| -> usize {
            round.iter().map(|(report, _)| field(report)).sum()
        };
        let correct = sum(|r| r.correct);
        let candidates = sum(|r| r.candidates);
        let neg_frac = {
            let weighted: f64 = round
                .iter()
                .zip(quotas.iter())
                .map(|((r, _), &q)| r.negative_feedback_frac * q as f64)
                .sum();
            let q_total: usize = quotas.iter().sum();
            if q_total == 0 {
                0.0
            } else {
                weighted / q_total as f64
            }
        };
        let report = EpisodeReport {
            episode,
            quality: Quality::from_counts(correct, candidates, truth_ids.len()),
            candidates,
            correct,
            added: sum(|r| r.added),
            removed: sum(|r| r.removed),
            negative_feedback_frac: neg_frac,
            rollbacks: sum(|r| r.rollbacks),
            change_frac: change_fraction(changed, total, candidates),
            duration: round
                .iter()
                .map(|(r, _)| r.duration)
                .max()
                .unwrap_or(Duration::ZERO),
            // Budget supervision runs single-agent only.
            degraded: false,
        };
        // Trust admission runs single-agent only: no trust tallies.
        emit_episode_end(&report, &EpisodeSummary::default(), 0);
        let converged = convergence(&cfg.alex, &report, changed, &mut relaxed_converged_at);
        episodes.push(report);
        if let Some(reason) = converged {
            stop = reason;
            break;
        }
    }

    let mut final_links: Vec<(Term, Term)> = Vec::new();
    for st in &states {
        for id in st.agent.candidates().iter() {
            final_links.push(st.agent.space().pair_terms(id));
        }
    }
    final_links.sort();
    final_links.dedup();

    let per_partition: Vec<PartitionTrace> = states
        .into_iter()
        .map(|st| PartitionTrace {
            partition: st.index,
            episodes: st.episodes,
            total_duration: st.total_duration,
        })
        .collect();
    let slowest_partition = per_partition
        .iter()
        .map(|p| p.total_duration)
        .max()
        .unwrap_or(Duration::ZERO);
    let mean_partition = {
        let total: Duration = per_partition.iter().map(|p| p.total_duration).sum();
        total / per_partition.len().max(1) as u32
    };

    PartitionedRun {
        initial_quality,
        episodes,
        per_partition,
        final_links,
        stop,
        relaxed_converged_at,
        slowest_partition,
        mean_partition,
        total_duration: run_span.elapsed(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset, Vec<(Term, Term)>) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        let names = [
            "Alpha Aardvark",
            "Beta Bison",
            "Gamma Gazelle",
            "Delta Dingo",
            "Epsilon Eagle",
            "Zeta Zebra",
            "Eta Egret",
            "Theta Tapir",
            "Iota Ibis",
            "Kappa Koala",
            "Lambda Lemur",
            "Mu Marmot",
        ];
        for (i, name) in names.iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "animal");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "animal");
        }
        let li = left.entity_index();
        let ri = right.entity_index();
        let mut truth = Vec::new();
        for i in 0..names.len() {
            let lt = left
                .interner()
                .get(&format!("http://l/{i}"))
                .map(Term::Iri)
                .unwrap();
            let rt = right
                .interner()
                .get(&format!("http://r/{i}"))
                .map(Term::Iri)
                .unwrap();
            assert!(li.id(lt).is_some() && ri.id(rt).is_some());
            truth.push((lt, rt));
        }
        (left, right, truth)
    }

    #[test]
    fn partitioned_run_improves_quality() {
        let (left, right, truth) = datasets();
        let initial: Vec<(Term, Term)> = truth.iter().copied().take(3).collect();
        let cfg = PartitionedConfig {
            partitions: 3,
            alex: AlexConfig {
                episode_size: 60,
                max_episodes: 25,
                ..AlexConfig::default()
            },
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg);
        assert!(run.initial_quality.recall < 0.5);
        assert!(
            run.final_quality().recall > run.initial_quality.recall,
            "{:?} -> {:?}",
            run.initial_quality,
            run.final_quality()
        );
        assert_eq!(run.per_partition.len(), 3);
    }

    /// Everything a report records except wall-clock time.
    fn identity(e: &EpisodeReport) -> String {
        format!(
            "ep {} q {:?} cand {} correct {} +{} -{} neg {} rb {} chg {} deg {}",
            e.episode,
            e.quality,
            e.candidates,
            e.correct,
            e.added,
            e.removed,
            e.negative_feedback_frac,
            e.rollbacks,
            e.change_frac,
            e.degraded
        )
    }

    /// One partition is the single-agent driver: `run_partitioned` with
    /// `partitions: 1` must report and link exactly what `driver::run`
    /// does on the whole space with the seeds the partition uses.
    #[test]
    fn single_partition_equals_plain_structure() {
        use crate::driver;
        use alex_datagen::{
            generate_pair, sample_initial_links, DatasetKind, InitialLinksSpec, PairSpec,
        };
        let spec = PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes);
        let mut episodes_seen = 0;
        for seed in [7, 8] {
            let pair = generate_pair(&spec.config(seed));
            let (left, right) = (&pair.left, &pair.right);
            let initial = sample_initial_links(&pair, InitialLinksSpec::low_p_high_r(seed));
            for error_rate in [0.0, 0.1] {
                let cfg = PartitionedConfig {
                    partitions: 1,
                    alex: AlexConfig {
                        episode_size: 50,
                        max_episodes: 10,
                        ..AlexConfig::default()
                    },
                    space: SpaceConfig::default(),
                    feedback_error_rate: error_rate,
                };
                let partitioned = run_partitioned(left, right, &initial, &pair.ground_truth, &cfg);

                let space = LinkSpace::build(left, right, &cfg.space);
                let ids = |pairs: &[(Term, Term)]| -> Vec<(u32, u32)> {
                    pairs
                        .iter()
                        .filter_map(|&(l, r)| {
                            Some((space.left_index().id(l)?, space.right_index().id(r)?))
                        })
                        .collect()
                };
                let initial_ids = ids(&initial);
                let truth: HashSet<(u32, u32)> = ids(&pair.ground_truth).into_iter().collect();
                let mut agent = Agent::new(space, &initial_ids, cfg.alex.clone());
                let mut oracle = OracleFeedback::with_error_rate(
                    truth.clone(),
                    error_rate,
                    cfg.alex.seed + 1000,
                );
                let plain = driver::run(&mut agent, &mut oracle, &truth);
                let mut plain_links: Vec<(Term, Term)> = agent
                    .candidates()
                    .iter()
                    .map(|id| agent.space().pair_terms(id))
                    .collect();
                plain_links.sort();

                let case = format!("seed {seed}, error rate {error_rate}");
                assert_eq!(partitioned.initial_quality, plain.initial_quality, "{case}");
                assert_eq!(
                    partitioned
                        .episodes
                        .iter()
                        .map(identity)
                        .collect::<Vec<_>>(),
                    plain.episodes.iter().map(identity).collect::<Vec<_>>(),
                    "{case}"
                );
                assert_eq!(partitioned.stop, plain.stop, "{case}");
                assert_eq!(
                    partitioned.relaxed_converged_at, plain.relaxed_converged_at,
                    "{case}"
                );
                assert_eq!(partitioned.final_links, plain_links, "{case}");
                episodes_seen += plain.episode_count();
            }
        }
        assert!(episodes_seen >= 8, "runs too short to compare");
    }

    #[test]
    fn durations_are_tracked() {
        let (left, right, truth) = datasets();
        let initial: Vec<(Term, Term)> = truth.clone();
        let cfg = PartitionedConfig {
            partitions: 2,
            alex: AlexConfig {
                episode_size: 20,
                max_episodes: 3,
                ..AlexConfig::default()
            },
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg);
        assert!(run.slowest_partition >= run.mean_partition);
        assert!(run.total_duration >= run.slowest_partition);
    }

    #[test]
    fn empty_initial_links_stop_without_feedback() {
        let (left, right, truth) = datasets();
        let cfg = PartitionedConfig {
            partitions: 2,
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &[], &truth, &cfg);
        assert_eq!(run.stop, StopReason::NoFeedback);
    }
}
