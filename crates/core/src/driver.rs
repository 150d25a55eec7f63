//! The single-agent run driver: the policy-evaluation / policy-
//! improvement loop with convergence detection and per-episode metrics.
//!
//! [`run_with`] is the one loop; [`run`] and [`run_durable`] are shorthands
//! for it without the optional layers. The partitioned driver
//! ([`crate::partition`]) steps one agent per partition and shares this
//! module's per-episode bookkeeping: change fraction, episode report, and
//! the convergence decision.
//!
//! ## Durable runs
//!
//! A [`Durability`] adds crash safety on top of the same loop: every episode
//! is committed to an `alex-store` journal before the run proceeds, full
//! snapshots are taken every `snapshot_every` episodes, and a killed run is
//! resumed with [`Durability::resume`] — the newest snapshot is restored and
//! the journal tail *replayed* through the agent, reproducing the exact
//! pre-crash learning state (byte-identical candidate links and
//! [`RunReport`], durations aside).

use std::collections::HashSet;
use std::time::Duration;

use alex_guard::{BreachPolicy, Supervisor};
use alex_store::{Recovery, Store};
use alex_telemetry::{counter, emit, span, Event, SpanGuard};

use crate::agent::{Agent, EpisodeSummary};
use crate::config::AlexConfig;
use crate::feedback::{Feedback, FeedbackItem, FeedbackSource};
use crate::metrics::{EpisodeReport, Quality};
use crate::persist::{self, EpisodeRecord, EpisodeStats, RunSnapshot};
use crate::space::{LinkSpace, PairId};

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Strict convergence: no change in the candidate set over an episode.
    Converged,
    /// Relaxed convergence: fewer than the configured fraction of links
    /// changed, and `stop_on_relaxed` was set.
    RelaxedConverged,
    /// The episode cap was reached (the paper caps at 100).
    MaxEpisodes,
    /// Feedback dried up (empty candidate set).
    NoFeedback,
    /// A durable run suspended itself after `stop_after` committed episodes
    /// (kill-and-resume harness); resume with [`Durability::resume`].
    Suspended,
    /// A supervised run breached its budget under
    /// [`alex_guard::BreachPolicy::Stop`]: the breaching episode was
    /// finalized (and journaled, when durable) before stopping.
    BudgetExhausted,
}

/// The full record of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Quality of the initial candidate set (episode 0 in the figures).
    pub initial_quality: Quality,
    /// Per-episode reports.
    pub episodes: Vec<EpisodeReport>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// First episode (1-based) at which fewer than the relaxed-convergence
    /// fraction of links changed, if any — the paper's vertical green line.
    pub relaxed_converged_at: Option<usize>,
    /// Total wall-clock duration.
    pub total_duration: std::time::Duration,
}

impl RunReport {
    /// Number of episodes executed.
    pub fn episode_count(&self) -> usize {
        self.episodes.len()
    }

    /// Final quality (initial quality when no episode ran).
    pub fn final_quality(&self) -> Quality {
        self.episodes
            .last()
            .map(|e| e.quality)
            .unwrap_or(self.initial_quality)
    }

    /// Episodes that breached their budget and were marked degraded.
    pub fn degraded_episodes(&self) -> usize {
        self.episodes.iter().filter(|e| e.degraded).count()
    }

    /// The run's completeness stamp: `true` only when no episode was
    /// degraded and the run neither suspended nor stopped on a budget
    /// breach — i.e. the report describes the run the configuration asked
    /// for, not a truncated or overrun one.
    pub fn is_complete(&self) -> bool {
        self.degraded_episodes() == 0
            && !matches!(
                self.stop,
                StopReason::Suspended | StopReason::BudgetExhausted
            )
    }
}

/// Durability settings for [`run_with`]: the open store, the recovery it
/// produced, and the commit cadence.
pub struct Durability<'a> {
    store: &'a mut dyn Store,
    recovery: Option<Recovery>,
    snapshot_every: u64,
    resume: bool,
    stop_after: Option<u64>,
    on_commit: Option<Box<dyn FnMut(u64) + 'a>>,
}

impl<'a> Durability<'a> {
    /// Durability over an opened store and the [`Recovery`] its open
    /// returned. Defaults: snapshot every 10 episodes, no resume, no
    /// suspension.
    pub fn new(store: &'a mut dyn Store, recovery: Recovery) -> Self {
        Durability {
            store,
            recovery: Some(recovery),
            snapshot_every: 10,
            resume: false,
            stop_after: None,
            on_commit: None,
        }
    }

    /// Allow continuing a run found in the state directory. Without this, a
    /// non-empty state directory is an error (refusing to silently clobber
    /// or double-run). A fresh directory with `resume` set simply starts
    /// fresh, so resuming is safe even if the original process died before
    /// its first commit.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Take a full snapshot every `n` committed episodes (0 disables
    /// periodic snapshots; the journal alone still recovers everything).
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Suspend the run (stop reason [`StopReason::Suspended`]) after `n`
    /// episodes have been committed *in this session* — the in-process half
    /// of the kill-and-resume harness.
    pub fn stop_after(mut self, n: u64) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Invoke `f` with the episode number after each durable commit (the
    /// CLI's `--kill-after` hook sends itself SIGKILL from here).
    pub fn on_commit(mut self, f: impl FnMut(u64) + 'a) -> Self {
        self.on_commit = Some(Box::new(f));
        self
    }
}

/// Wraps a live feedback source, recording every judged item so the episode
/// can be journaled (and later replayed) exactly.
struct RecordingSource<'a> {
    inner: &'a mut dyn FeedbackSource,
    items: Vec<(u32, u32, bool, u32)>,
}

impl FeedbackSource for RecordingSource<'_> {
    fn next(
        &mut self,
        candidates: &crate::candidates::CandidateSet,
        space: &LinkSpace,
    ) -> Option<(PairId, Feedback)> {
        self.next_item(candidates, space)
            .map(|item| (item.state, item.feedback))
    }

    fn next_item(
        &mut self,
        candidates: &crate::candidates::CandidateSet,
        space: &LinkSpace,
    ) -> Option<FeedbackItem> {
        let item = self.inner.next_item(candidates, space)?;
        let (l, r) = space.pair(item.state);
        self.items
            .push((l, r, item.feedback == Feedback::Positive, item.source.0));
        Some(item)
    }

    fn take_degraded(&mut self) -> usize {
        self.inner.take_degraded()
    }
}

/// Mutable bookkeeping shared by the fresh, replay, and live paths.
struct RunState {
    episodes: Vec<EpisodeReport>,
    relaxed_converged_at: Option<usize>,
    prev: HashSet<PairId>,
    stop: Option<StopReason>,
    recovered_from: u64,
}

/// Fraction of the previous candidate set (`prev` links) that `changed`
/// over an episode; growing from an empty set counts as a full change.
pub(crate) fn change_fraction(changed: usize, prev: usize, current: usize) -> f64 {
    match (prev, current) {
        (0, 0) => 0.0,
        (0, _) => 1.0,
        _ => changed as f64 / prev as f64,
    }
}

/// Score the agent's candidate set after an episode: its change against
/// `prev` (which then becomes the current set) and its quality against
/// `truth`. Returns the episode's report and the number of changed links.
pub(crate) fn score_episode(
    agent: &Agent,
    truth: &HashSet<(u32, u32)>,
    prev: &mut HashSet<PairId>,
    episode: usize,
    summary: &EpisodeSummary,
    duration: Duration,
    degraded: bool,
) -> (EpisodeReport, usize) {
    let current = agent.candidates().snapshot();
    let changed = current.symmetric_difference(prev).count();
    let change_frac = change_fraction(changed, prev.len(), current.len());
    let (correct, quality) = Quality::evaluate_counted(agent.candidates(), agent.space(), truth);
    let report = EpisodeReport {
        episode,
        quality,
        candidates: current.len(),
        correct,
        added: summary.added,
        removed: summary.removed,
        negative_feedback_frac: summary.negative_frac(),
        rollbacks: summary.rollbacks,
        change_frac,
        duration,
        degraded,
    };
    *prev = current;
    (report, changed)
}

/// The convergence decision after an episode in which `changed` links
/// changed: notes the first episode whose change fell below the relaxed
/// fraction in `relaxed_at`, and stops on strict convergence (nothing
/// changed) or, with `stop_on_relaxed`, on relaxed convergence.
pub(crate) fn convergence(
    cfg: &AlexConfig,
    report: &EpisodeReport,
    changed: usize,
    relaxed_at: &mut Option<usize>,
) -> Option<StopReason> {
    let relaxed = report.change_frac < cfg.relaxed_convergence_frac;
    if relaxed && relaxed_at.is_none() {
        *relaxed_at = Some(report.episode);
    }
    if changed == 0 {
        Some(StopReason::Converged)
    } else if cfg.stop_on_relaxed && relaxed {
        Some(StopReason::RelaxedConverged)
    } else {
        None
    }
}

/// Emit the `episode_end` event for an episode's report; `summary`
/// supplies the trust-gate tallies.
pub(crate) fn emit_episode_end(
    report: &EpisodeReport,
    summary: &EpisodeSummary,
    recovered_from: u64,
) {
    emit!(Event::EpisodeEnd {
        episode: report.episode as u64,
        precision: report.quality.precision,
        recall: report.quality.recall,
        f_measure: report.quality.f_measure,
        added: report.added as u64,
        removed: report.removed as u64,
        rollbacks: report.rollbacks as u64,
        threads: alex_parallel::configured_threads() as u64,
        duration_us: report.duration.as_micros() as u64,
        recovered_from,
        trust_admitted: summary.admitted as u64,
        trust_deferred: summary.deferred as u64,
        trust_cascades: summary.cascades as u64,
        degraded: report.degraded,
    });
}

/// Per-episode bookkeeping: convergence math, metrics, report, telemetry.
/// Identical for live and replayed episodes — that is what makes replay
/// reach the same stop decision the live run would have.
fn note_episode(
    agent: &Agent,
    truth: &HashSet<(u32, u32)>,
    st: &mut RunState,
    episode: usize,
    summary: &EpisodeSummary,
    duration: Duration,
    degraded: bool,
) {
    let (report, changed) = {
        let _s = span("evaluate");
        score_episode(
            agent,
            truth,
            &mut st.prev,
            episode,
            summary,
            duration,
            degraded,
        )
    };
    if degraded {
        counter!("episodes_degraded_total").inc();
    }
    emit_episode_end(&report, summary, st.recovered_from);
    st.stop = convergence(
        agent.config(),
        &report,
        changed,
        &mut st.relaxed_converged_at,
    );
    st.episodes.push(report);
}

/// Open an episode's span and announce the episode.
pub(crate) fn begin_episode(episode: usize) -> SpanGuard {
    let episode_span = span("episode");
    emit!(Event::EpisodeStart {
        episode: episode as u64
    });
    episode_span
}

/// Write a full-run snapshot of the current agent + driver state.
fn write_snapshot(
    store: &mut dyn Store,
    agent: &Agent,
    source: &dyn FeedbackSource,
    st: &RunState,
    last_episode: u64,
    completed: bool,
) -> Result<(), String> {
    let source_state = source
        .durable_state()
        .ok_or_else(|| "feedback source stopped providing durable state".to_string())?;
    let payload = persist::encode_snapshot(&RunSnapshot {
        base_fingerprint: agent.base_fingerprint(),
        last_episode,
        completed,
        relaxed_converged_at: st.relaxed_converged_at.map(|e| e as u64),
        episodes: st
            .episodes
            .iter()
            .map(|e| EpisodeStats {
                episode: e.episode as u64,
                precision: e.quality.precision,
                recall: e.quality.recall,
                f_measure: e.quality.f_measure,
                candidates: e.candidates as u64,
                correct: e.correct as u64,
                added: e.added as u64,
                removed: e.removed as u64,
                negative_feedback_frac: e.negative_feedback_frac,
                rollbacks: e.rollbacks as u64,
                change_frac: e.change_frac,
                degraded: e.degraded,
            })
            .collect(),
        agent: agent.capture_state(),
        source_state,
    });
    store
        .write_snapshot(last_episode, &payload)
        .map_err(|e| e.to_string())?;
    counter!("store_snapshots_total").inc();
    Ok(())
}

/// Run the agent to convergence against a feedback source, scoring each
/// episode against `truth` (ground-truth entity-id pairs).
pub fn run(
    agent: &mut Agent,
    source: &mut dyn FeedbackSource,
    truth: &HashSet<(u32, u32)>,
) -> RunReport {
    // Without durability there is no I/O and no recovery: nothing can fail.
    run_with(agent, source, truth, None, None)
        .unwrap_or_else(|e| unreachable!("non-durable run cannot fail: {e}"))
}

/// [`run_with`] with durability and without a supervisor.
pub fn run_durable(
    agent: &mut Agent,
    source: &mut dyn FeedbackSource,
    truth: &HashSet<(u32, u32)>,
    durability: Durability<'_>,
) -> Result<RunReport, String> {
    run_with(agent, source, truth, Some(durability), None)
}

/// The single-agent loop every run goes through: episodes of feedback from
/// `source`, each scored against `truth` (ground-truth entity-id pairs),
/// until convergence, the episode cap, or a stop below. Durability and
/// supervision are optional layers on the same loop:
///
/// * `durability` makes the run crash-safe: every episode is journaled
///   before the run proceeds, snapshots are taken periodically, and a
///   prior interrupted run is resumed (snapshot restore + journal replay)
///   when [`Durability::resume`] is set.
/// * `supervisor` (see `alex-guard`) is consulted at every episode
///   boundary: a breaching episode is finalized normally but marked
///   degraded, and the run then continues or stops per the supervisor's
///   [`BreachPolicy`]. Breach markers are journaled inside each episode's
///   WAL record, so a resumed run replays the degraded flags instead of
///   re-measuring wall clocks it cannot reproduce. The report's
///   [`RunReport::is_complete`] stamp records whether any budget was hit.
///
/// Fails only with durability: on store I/O errors, corrupt state that
/// recovery could not repair, a state directory belonging to a different
/// run, or a feedback source without durable state.
pub fn run_with(
    agent: &mut Agent,
    source: &mut dyn FeedbackSource,
    truth: &HashSet<(u32, u32)>,
    mut durability: Option<Durability<'_>>,
    mut supervisor: Option<&mut Supervisor>,
) -> Result<RunReport, String> {
    let run_span = span("improve");
    let initial_quality = {
        let _s = span("initial_quality");
        Quality::evaluate(agent.candidates(), agent.space(), truth)
    };
    let mut st = RunState {
        episodes: Vec::new(),
        relaxed_converged_at: None,
        prev: agent.candidates().snapshot(),
        stop: None,
        recovered_from: 0,
    };
    let mut start_episode = 1usize;

    if let Some(d) = durability.as_mut() {
        if source.durable_state().is_none() {
            return Err(
                "durable runs need a feedback source with durable state (the oracle); \
                 live user feedback cannot be journaled for replay"
                    .to_string(),
            );
        }
        let recovery = d
            .recovery
            .take()
            .ok_or_else(|| "durability recovery already consumed".to_string())?;
        if recovery.is_fresh() {
            // Brand-new state dir (with or without --resume: resuming
            // nothing is starting fresh, which keeps resume safe even if
            // the original process died before its first commit). Pin the
            // run with an initial snapshot before any episode runs.
            write_snapshot(d.store, agent, source, &st, 0, false)?;
        } else {
            if !d.resume {
                return Err(format!(
                    "state dir {} already holds a run; pass --resume to continue it \
                     or point --state-dir at an empty directory",
                    d.store.dir().display()
                ));
            }
            counter!("store_recoveries_total").inc();
            counter!("store_truncated_records_total").add(recovery.truncated_records);
            let last = recovery.last_seq().unwrap_or(0);

            let mut expected_seq = 1u64;
            if let Some((snap_seq, payload)) = &recovery.snapshot {
                let snap = persist::decode_snapshot(payload)?;
                if snap.completed {
                    return Err(
                        "this run already completed; nothing to resume (start a fresh \
                         run with a new --state-dir)"
                            .to_string(),
                    );
                }
                if snap.base_fingerprint != agent.base_fingerprint() {
                    return Err(
                        "state dir belongs to a different run: the link space, initial \
                         links, or configuration changed since the snapshot was taken"
                            .to_string(),
                    );
                }
                agent.restore_state(&snap.agent)?;
                source.restore_durable_state(&snap.source_state)?;
                st.relaxed_converged_at = snap.relaxed_converged_at.map(|e| e as usize);
                st.episodes = snap
                    .episodes
                    .iter()
                    .map(|e| EpisodeReport {
                        episode: e.episode as usize,
                        quality: Quality {
                            precision: e.precision,
                            recall: e.recall,
                            f_measure: e.f_measure,
                        },
                        candidates: e.candidates as usize,
                        correct: e.correct as usize,
                        added: e.added as usize,
                        removed: e.removed as usize,
                        negative_feedback_frac: e.negative_feedback_frac,
                        rollbacks: e.rollbacks as usize,
                        change_frac: e.change_frac,
                        // Wall-clock time belongs to the original session;
                        // resume identity excludes durations.
                        duration: Duration::ZERO,
                        degraded: e.degraded,
                    })
                    .collect();
                st.prev = agent.candidates().snapshot();
                expected_seq = snap_seq + 1;
            }
            st.recovered_from = last;

            // Replay the journal tail through the restored agent. The same
            // bookkeeping as the live loop runs here, so convergence that
            // struck just before the crash is re-detected.
            for (seq, payload) in &recovery.journal_tail {
                if *seq != expected_seq {
                    return Err(format!(
                        "journal gap: expected episode {expected_seq}, found {seq}; \
                         the state dir is damaged beyond recovery"
                    ));
                }
                expected_seq += 1;
                let episode_span = begin_episode(*seq as usize);
                let record = persist::decode_episode(payload)?;
                let summary = agent.replay_episode(&record.items)?;
                source.restore_durable_state(&record.source_state)?;
                // The degraded marker is replayed from the WAL record, not
                // re-measured: wall clocks are not reproducible.
                note_episode(
                    agent,
                    truth,
                    &mut st,
                    *seq as usize,
                    &summary,
                    episode_span.elapsed(),
                    record.degraded,
                );
                if st.stop.is_some() {
                    break;
                }
            }
            start_episode = last as usize + 1;
        }
    }

    let mut committed_this_session = 0u64;
    if st.stop.is_none() {
        for episode in start_episode..=agent.config().max_episodes {
            let episode_span = begin_episode(episode);
            let (summary, items) = {
                let _s = span("feedback");
                if durability.is_some() {
                    let mut recorder = RecordingSource {
                        inner: source,
                        items: Vec::new(),
                    };
                    let summary = agent.run_episode(&mut recorder);
                    (summary, recorder.items)
                } else {
                    (agent.run_episode(source), Vec::new())
                }
            };
            let duration = episode_span.elapsed();

            if summary.feedback_items() == 0 {
                if summary.degraded > 0 {
                    // Every judgment this episode was withheld because
                    // queries degraded (sources down). Skip the episode —
                    // record nothing, corrupt nothing — and try again: the
                    // breakers may recover.
                    counter!("alex_degraded_episodes_skipped_total").inc();
                    continue;
                }
                st.stop = Some(StopReason::NoFeedback);
                break;
            }

            // Budget check at the episode boundary, before the commit, so
            // the degraded marker travels inside the episode's own WAL
            // record and resume replays it for free.
            let degraded = supervisor.as_deref_mut().is_some_and(|sup| {
                sup.after_episode(episode as u64, duration, summary.feedback_items() as u64)
                    .is_some()
            });

            if let Some(d) = durability.as_mut() {
                // Commit before acting on the episode: once append returns,
                // this episode survives a crash.
                let source_state = source.durable_state().ok_or_else(|| {
                    "feedback source stopped providing durable state mid-run".to_string()
                })?;
                let record = persist::encode_episode(&EpisodeRecord {
                    items,
                    source_state,
                    degraded,
                });
                d.store
                    .append_episode(episode as u64, &record)
                    .map_err(|e| e.to_string())?;
                counter!("store_journal_records_total").inc();
            }

            note_episode(agent, truth, &mut st, episode, &summary, duration, degraded);

            if degraded
                && st.stop.is_none()
                && supervisor.as_ref().map(|s| s.policy()) == Some(BreachPolicy::Stop)
            {
                // Finalize-then-stop: the breaching episode is already
                // committed and reported; the final snapshot below stamps
                // the run completed so a later --resume refuses cleanly.
                st.stop = Some(StopReason::BudgetExhausted);
            }

            if let Some(d) = durability.as_mut() {
                committed_this_session += 1;
                if st.stop.is_none()
                    && d.snapshot_every > 0
                    && (episode as u64).is_multiple_of(d.snapshot_every)
                {
                    write_snapshot(d.store, agent, source, &st, episode as u64, false)?;
                }
                if let Some(cb) = d.on_commit.as_mut() {
                    cb(episode as u64);
                }
                if st.stop.is_none() && d.stop_after == Some(committed_this_session) {
                    st.stop = Some(StopReason::Suspended);
                }
            }
            if st.stop.is_some() {
                break;
            }
        }
    }

    let stop = st.stop.unwrap_or(StopReason::MaxEpisodes);
    if let Some(d) = durability.as_mut() {
        if stop != StopReason::Suspended {
            // Final snapshot, flagged completed: a later --resume fails
            // with a clear message instead of re-running a finished run.
            let last = st
                .episodes
                .last()
                .map(|e| e.episode as u64)
                .unwrap_or(st.recovered_from);
            write_snapshot(d.store, agent, source, &st, last, true)?;
        }
    }

    Ok(RunReport {
        initial_quality,
        episodes: st.episodes,
        stop,
        relaxed_converged_at: st.relaxed_converged_at,
        total_duration: run_span.elapsed(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::AlexConfig;
    use crate::feedback::OracleFeedback;
    use crate::space::{LinkSpace, SpaceConfig};
    use alex_rdf::Dataset;

    fn build() -> (LinkSpace, HashSet<(u32, u32)>) {
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
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let truth: HashSet<(u32, u32)> = (0..names.len() as u32).map(|i| (i, i)).collect();
        (space, truth)
    }

    #[test]
    fn run_improves_recall_from_partial_start() {
        let (space, truth) = build();
        // Start with 25% of the ground truth.
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let cfg = AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 5);
        let report = run(&mut agent, &mut oracle, &truth);
        assert!(report.initial_quality.recall <= 0.3);
        let final_q = report.final_quality();
        assert!(
            final_q.recall > report.initial_quality.recall,
            "recall did not improve: {:?} -> {:?}",
            report.initial_quality,
            final_q
        );
        assert!(final_q.recall >= 0.8, "final recall {:?}", final_q);
    }

    #[test]
    fn run_cleans_bad_links() {
        let (space, truth) = build();
        // Start with all true links plus several wrong ones.
        let mut initial: Vec<(u32, u32)> = truth.iter().copied().collect();
        initial.extend([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let cfg = AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 6);
        let report = run(&mut agent, &mut oracle, &truth);
        let final_q = report.final_quality();
        assert!(final_q.precision > report.initial_quality.precision);
        assert!(final_q.precision >= 0.9, "final {final_q:?}");
    }

    #[test]
    fn empty_start_stops_with_no_feedback() {
        let (space, truth) = build();
        let mut agent = Agent::new(space, &[], AlexConfig::default());
        let mut oracle = OracleFeedback::new(truth.clone(), 7);
        let report = run(&mut agent, &mut oracle, &truth);
        assert_eq!(report.stop, StopReason::NoFeedback);
        assert_eq!(report.episode_count(), 0);
    }

    #[test]
    fn episode_reports_are_sequential_and_timed() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(4).collect();
        let cfg = AlexConfig {
            episode_size: 20,
            max_episodes: 5,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 8);
        let report = run(&mut agent, &mut oracle, &truth);
        for (i, ep) in report.episodes.iter().enumerate() {
            assert_eq!(ep.episode, i + 1);
        }
        assert!(report.total_duration.as_nanos() > 0);
    }

    #[test]
    fn convergence_is_detected() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().collect();
        let cfg = AlexConfig {
            episode_size: 60,
            max_episodes: 50,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 9);
        let report = run(&mut agent, &mut oracle, &truth);
        // Must stop before the cap: all-correct candidates stabilize.
        assert_eq!(report.stop, StopReason::Converged);
        assert!(report.relaxed_converged_at.is_some());
        assert!(
            report.relaxed_converged_at.unwrap() <= report.episode_count(),
            "relaxed convergence cannot come after strict"
        );
    }

    // ------------------------------------------------------------ durable

    use alex_store::DirectStore;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-driver-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        }
    }

    /// Reports compared for resume identity: everything except wall-clock
    /// durations (which belong to whichever session ran the episode).
    fn report_identity(r: &RunReport) -> Vec<String> {
        let mut out = vec![format!(
            "initial {:?} stop {:?} relaxed {:?}",
            r.initial_quality, r.stop, r.relaxed_converged_at
        )];
        for e in &r.episodes {
            out.push(format!(
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
            ));
        }
        out
    }

    #[test]
    fn durable_fresh_run_matches_plain_run() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 11);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let dir = tmpdir("fresh-vs-plain");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 11);
        let durable = run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap();

        assert_eq!(report_identity(&plain), report_identity(&durable));
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suspend_and_resume_is_identical() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        // Small episodes plus noisy feedback so the candidate set keeps
        // churning (rollbacks included) and the cut point lands strictly
        // mid-run instead of after convergence.
        let cfg = || AlexConfig {
            episode_size: 5,
            max_episodes: 12,
            ..AlexConfig::default()
        };
        let noisy = |seed| OracleFeedback::with_error_rate(truth.clone(), 0.2, seed);

        // Uninterrupted reference run.
        let dir_ref = tmpdir("resume-ref");
        let (mut store, recovery) = DirectStore::open(&dir_ref).unwrap();
        let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
        let mut ref_oracle = noisy(12);
        let reference = run_durable(
            &mut ref_agent,
            &mut ref_oracle,
            &truth,
            Durability::new(&mut store, recovery).snapshot_every(4),
        )
        .unwrap();
        assert!(
            reference.episode_count() > 3,
            "reference too short to test: {} episodes",
            reference.episode_count()
        );

        // Interrupted run: suspend after 3 committed episodes...
        let dir = tmpdir("resume-cut");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = noisy(12);
        let cut = run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(4)
                .stop_after(3),
        )
        .unwrap();
        assert_eq!(cut.stop, StopReason::Suspended);
        assert_eq!(cut.episode_count(), 3);
        drop(store);

        // ...then resume with a *fresh* agent and oracle, as a new process
        // would.
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        assert!(!recovery.is_fresh());
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = noisy(12);
        let resumed = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(4)
                .resume(true),
        )
        .unwrap();

        assert_eq!(report_identity(&reference), report_identity(&resumed));
        assert_eq!(ref_agent.capture_state(), agent2.capture_state());
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn used_state_dir_requires_resume_flag() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("no-flag");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 13);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery).stop_after(1),
        )
        .unwrap();
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 13);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap_err();
        assert!(err.contains("--resume"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_run_refuses_resume() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("completed");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 14);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap();
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 14);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery).resume(true),
        )
        .unwrap_err();
        assert!(err.contains("already completed"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_run_is_rejected() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("mismatch");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 15);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery).stop_after(1),
        )
        .unwrap();
        drop(store);

        // Same space, different config seed → different fingerprint.
        let other = AlexConfig {
            seed: cfg().seed + 1,
            ..cfg()
        };
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, other);
        let mut oracle2 = OracleFeedback::new(truth.clone(), 15);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery).resume(true),
        )
        .unwrap_err();
        assert!(err.contains("different run"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_durable_source_is_rejected() {
        struct LiveOnly;
        impl FeedbackSource for LiveOnly {
            fn next(
                &mut self,
                _: &crate::candidates::CandidateSet,
                _: &LinkSpace,
            ) -> Option<(PairId, Feedback)> {
                None
            }
        }
        let (space, truth) = build();
        let dir = tmpdir("live-only");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space, &[(0, 0)], cfg());
        let err = run_durable(
            &mut agent,
            &mut LiveOnly,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap_err();
        assert!(err.contains("durable state"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --------------------------------------------------------- supervised

    use alex_guard::Budget;

    #[test]
    fn supervised_unlimited_budget_matches_plain_run() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 21);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 21);
        let mut sup = Supervisor::new(Budget::unlimited(), BreachPolicy::Stop);
        let supervised = run_with(&mut agent, &mut oracle, &truth, None, Some(&mut sup)).unwrap();

        assert_eq!(report_identity(&plain), report_identity(&supervised));
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
        assert_eq!(sup.breaches(), 0);
        assert!(supervised.is_complete());
        assert_eq!(supervised.degraded_episodes(), 0);
    }

    #[test]
    fn item_quota_breach_degrades_and_stops_under_stop_policy() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 22);
        // One feedback item total: the first episode breaches the quota.
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Stop);
        let report = run_with(&mut agent, &mut oracle, &truth, None, Some(&mut sup)).unwrap();

        assert_eq!(report.stop, StopReason::BudgetExhausted);
        assert_eq!(
            report.episode_count(),
            1,
            "finalize-then-stop keeps the breaching episode"
        );
        assert_eq!(report.degraded_episodes(), 1);
        assert!(report.episodes[0].degraded);
        assert!(!report.is_complete());
        assert_eq!(sup.breaches(), 1);
    }

    #[test]
    fn item_quota_breach_continues_under_continue_policy() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 23);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 23);
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let report = run_with(&mut agent, &mut oracle, &truth, None, Some(&mut sup)).unwrap();

        // Degradation is recorded but never changes the run's trajectory:
        // every episode breaches the quota yet the run ends as the plain
        // run does.
        assert_ne!(report.stop, StopReason::BudgetExhausted);
        assert_eq!(report.episode_count(), plain.episode_count());
        assert_eq!(report.degraded_episodes(), report.episode_count());
        assert!(!report.is_complete());
        assert_eq!(sup.breaches(), report.episode_count() as u64);
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
    }

    #[test]
    fn durable_supervised_resume_replays_degraded_markers() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        // Reference: one uninterrupted supervised durable run.
        let dir_ref = tmpdir("sup-ref");
        let (mut store, recovery) = DirectStore::open(&dir_ref).unwrap();
        let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
        let mut ref_oracle = OracleFeedback::new(truth.clone(), 24);
        let mut ref_sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let reference = run_with(
            &mut ref_agent,
            &mut ref_oracle,
            &truth,
            Some(Durability::new(&mut store, recovery)),
            Some(&mut ref_sup),
        )
        .unwrap();
        assert!(reference.degraded_episodes() > 0);
        assert!(
            reference.episode_count() > 1,
            "need >1 episode to suspend mid-run"
        );

        // Same run, suspended after three episodes, then resumed WITHOUT a
        // supervisor: the degraded markers must come back from the WAL.
        let dir = tmpdir("sup-resume");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 24);
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let suspended = run_with(
            &mut agent,
            &mut oracle,
            &truth,
            Some(Durability::new(&mut store, recovery).stop_after(1)),
            Some(&mut sup),
        )
        .unwrap();
        assert_eq!(suspended.stop, StopReason::Suspended);
        assert_eq!(suspended.degraded_episodes(), 1);
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 24);
        let mut sup2 = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let resumed = run_with(
            &mut agent2,
            &mut oracle2,
            &truth,
            Some(Durability::new(&mut store, recovery).resume(true)),
            Some(&mut sup2),
        )
        .unwrap();

        assert_eq!(report_identity(&reference), report_identity(&resumed));
        assert_eq!(ref_agent.capture_state(), agent2.capture_state());
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
