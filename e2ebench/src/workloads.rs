//! The three workloads. Each drives ALEX through the public functions of
//! its crates the way a user of the `alex` command does, with the command's
//! defaults except where a workload states otherwise.
//!
//! A workload has an untimed-in-the-unit `setup` (its cost is `setup_s`)
//! and a timed unit, `run_once`, that is repeated for the run's duration.
//! With a [`Recorder`], `run_once` swaps the program's trait objects for
//! the timing wrappers of [`crate::wrap`] and records spans around each
//! public layer call; without one, nothing is wrapped.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use alex::core::{
    driver, run_partitioned, workload_from_links, Agent, AlexConfig, Durability, FeedbackBridge,
    LinkSpace, OracleFeedback, PartitionedConfig, QueryFeedback, SpaceConfig,
};
use alex::datagen::{
    generate_pair, sample_initial_links, DatasetKind, GeneratedPair, InitialLinksSpec, PairSpec,
};
use alex::rdf::{ntriples, Dataset, Term};
use alex::sparql::{Catalog, DatasetEndpoint, Endpoint, FederatedEngine, SameAsLinks};
use alex::store::{DirectStore, Store};

use crate::procfs::cpu_seconds;
use crate::spans::Recorder;
use crate::wrap::{EndpointProbe, TimedEndpoint, TimedSource, TimedStore};

/// The batch workload generates the `dbpedia-nytimes` pair at 1/`BATCH_DIVISOR`
/// of the entity counts `alex gen` uses, so that one timed unit fits a run
/// several times over (see the benchmark's README).
pub const BATCH_DIVISOR: usize = 16;

/// Entity-count divisor of the durable workload's `dbpedia-nytimes` pair.
pub const DURABLE_DIVISOR: usize = 4;

/// Threads the timed region runs with.
pub const THREADS: usize = 2;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = [
    "batch-dbpedia-nytimes",
    "interactive-nba",
    "durable-dbpedia-nytimes",
];

/// Data sets a run of `workload` generates from its seed. The timed units
/// cycle over them so that every run weighs the same mix of inputs. The
/// interactive and durable units vary most from one input to the next (how
/// soon a session or loop converges, and to what F-measure), so they get
/// more; the small NBA pair varies most of all.
pub fn datasets(workload: &str) -> usize {
    match workload {
        "batch-dbpedia-nytimes" => 4,
        "interactive-nba" => 12,
        _ => 8,
    }
}

/// One timed unit's observations.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// The final link set as sorted `owl:sameAs` N-Triples.
    pub links: String,
    /// F-measure of the final links against ground truth.
    pub final_f: f64,
    /// Wall time of the timed unit, s.
    pub wall_s: f64,
    /// Every wait for the workload's result in the unit, ms: the pipeline
    /// (batch), each answer (interactive), each committed episode
    /// (durable).
    pub waits_ms: Vec<f64>,
    /// Work items the unit completed: input triples (batch), federated
    /// queries (interactive), feedback steps (durable).
    pub work: f64,
    /// Operations attempted (pipelines, federated queries, episodes).
    pub attempted: u64,
    /// Operations that failed or degraded.
    pub failed: u64,
    /// Per-layer values of this unit (one value per name).
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer samples pooled across units for percentiles, in the
    /// metric's unit.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

/// A workload's prepared inputs plus its per-layer setup readings.
pub struct Prepared {
    state: State,
    /// Per-layer values measured while setting up.
    pub layer: BTreeMap<&'static str, f64>,
}

enum State {
    Batch(BatchInputs),
    Interactive(InteractiveInputs),
    Durable(DurableInputs),
}

/// A global counter's current value.
fn counter(name: &str) -> u64 {
    alex::telemetry::global().metrics().counter(name).get()
}

/// A per-pool counter's current value.
fn pool_counter(name: &str, pool: &str) -> u64 {
    alex::telemetry::global()
        .metrics()
        .counter_with_labels(name, &[("pool", pool)])
        .get()
}

/// Work-stealing steals summed over every pool the program runs.
fn steals() -> u64 {
    ["paris", "paris_functionality", "space_build", "federation"]
        .iter()
        .map(|pool| pool_counter("steals_total", pool))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `f` inside a span named `name` when tracing.
fn spanned<R>(rec: Option<&Arc<Recorder>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = rec.map(|r| r.enter(name));
    let out = f();
    if let (Some(r), Some(open)) = (rec, open) {
        r.exit(open);
    }
    out
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn dbpedia_nytimes(divisor: usize) -> PairSpec {
    let mut spec = PairSpec::of(DatasetKind::DBpedia, DatasetKind::NYTimes);
    spec.shared /= divisor;
    spec.left_only /= divisor;
    spec.right_only /= divisor;
    spec
}

fn nba() -> PairSpec {
    PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes)
}

/// Ground truth as IRI pairs, the content of `alex gen`'s `truth.nt`.
fn truth_links(pair: &GeneratedPair) -> SameAsLinks {
    SameAsLinks::from_pairs(pair.ground_truth.iter().map(|&(l, r)| {
        (
            pair.left.resolve(l).to_string(),
            pair.right.resolve(r).to_string(),
        )
    }))
}

/// Parse N-Triples text into a data set named like `alex` names a file.
fn parse(name: &str, text: &str) -> Result<Dataset, String> {
    let mut ds = Dataset::new(name);
    ntriples::parse_into(&mut ds, text).map_err(|e| format!("{name}.nt: {e}"))?;
    Ok(ds)
}

/// IRI links → `(left term, right term)` over parsed data sets, in the
/// links' sorted order (what `alex improve` does with a links file).
fn to_term_pairs(left: &Dataset, right: &Dataset, set: &SameAsLinks) -> Vec<(Term, Term)> {
    set.iter()
        .filter_map(|l| {
            let lt = left.interner().get(&l.left).map(Term::Iri)?;
            let rt = right.interner().get(&l.right).map(Term::Iri)?;
            Some((lt, rt))
        })
        .collect()
}

/// IRI links → entity-id pairs (the durable and query-feedback paths).
fn to_id_pairs(left: &Dataset, right: &Dataset, set: &SameAsLinks) -> Vec<(u32, u32)> {
    let (li, ri) = (left.entity_index(), right.entity_index());
    to_term_pairs(left, right, set)
        .into_iter()
        .filter_map(|(l, r)| Some((li.id(l)?, ri.id(r)?)))
        .collect()
}

/// Term pairs → sorted `owl:sameAs` N-Triples (what `--out` writes).
fn links_text(
    left: &Dataset,
    right: &Dataset,
    pairs: impl Iterator<Item = (Term, Term)>,
) -> String {
    SameAsLinks::from_pairs(
        pairs.map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    )
    .to_ntriples()
}

fn agent_links(agent: &Agent, left: &Dataset, right: &Dataset) -> String {
    links_text(
        left,
        right,
        agent
            .candidates()
            .iter()
            .map(|id| agent.space().pair_terms(id)),
    )
}

/// Set up workload `name` for `seed`.
pub fn setup(name: &str, seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Prepared, String> {
    match name {
        "batch-dbpedia-nytimes" => batch_setup(seed, rec),
        "interactive-nba" => interactive_setup(seed, rec),
        "durable-dbpedia-nytimes" => durable_setup(seed, rec),
        other => Err(format!(
            "unknown workload '{other}'; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Run one timed unit of a prepared workload. `scratch` is a directory
/// the unit may use for files (the durable workload's state directory).
pub fn run_once(
    prepared: &Prepared,
    scratch: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<Rep, String> {
    let mut rep = match &prepared.state {
        State::Batch(inputs) => batch_run(inputs, rec),
        State::Interactive(inputs) => interactive_run(inputs, rec),
        State::Durable(inputs) => durable_run(inputs, scratch, rec),
    }?;
    rep.layer.insert("bench.unit_s", rep.wall_s);
    Ok(rep)
}

// ---------------------------------------------------------------- batch --

struct BatchInputs {
    left_text: String,
    right_text: String,
    truth: SameAsLinks,
}

fn batch_setup(seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Prepared, String> {
    let pair = spanned(rec, "datagen.generate", || {
        generate_pair(&dbpedia_nytimes(BATCH_DIVISOR).config(seed))
    });
    let inputs = BatchInputs {
        left_text: ntriples::serialize(&pair.left),
        right_text: ntriples::serialize(&pair.right),
        truth: truth_links(&pair),
    };
    Ok(Prepared {
        state: State::Batch(inputs),
        layer: BTreeMap::new(),
    })
}

/// `alex link` at its defaults, then `alex improve` at its defaults:
/// N-Triples text in, improved link set out.
fn batch_run(inputs: &BatchInputs, rec: Option<&Arc<Recorder>>) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let root = rec.map(|r| r.enter("bench.pipeline"));
    let start = Instant::now();

    let t = Instant::now();
    let left = spanned(rec, "rdf.parse", || parse("left", &inputs.left_text))?;
    let right = spanned(rec, "rdf.parse", || parse("right", &inputs.right_text))?;
    rep.layer.insert("rdf.parse_s", secs_since(t));
    rep.layer
        .insert("rdf.triples", (left.len() + right.len()) as f64);

    let steals_before = steals();
    let (hits, misses) = (
        counter("simmemo_hits_total"),
        counter("simmemo_misses_total"),
    );
    let (t, cpu) = (Instant::now(), cpu_seconds());
    let output = spanned(rec, "linking.paris", || {
        alex::Paris::new().link(&left, &right)
    });
    rep.layer.insert("linking.paris_s", secs_since(t));
    rep.layer.insert("linking.paris_cpu_s", cpu_seconds() - cpu);
    rep.layer
        .insert("linking.links_out", output.links.len() as f64);
    let hits = (counter("simmemo_hits_total") - hits) as f64;
    let misses = (counter("simmemo_misses_total") - misses) as f64;
    rep.layer
        .insert("linking.simmemo_hit_ratio", ratio(hits, hits + misses));

    let linked = SameAsLinks::from_pairs(
        output
            .term_pairs()
            .into_iter()
            .map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    );
    let initial = to_term_pairs(&left, &right, &linked);
    let truth = to_term_pairs(&left, &right, &inputs.truth);
    let cfg = PartitionedConfig {
        partitions: 4,
        alex: AlexConfig {
            episode_size: 1000,
            max_episodes: 40,
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: 0.0,
    };
    let busy = pool_counter("parallel_busy_us_total", "space_build");
    let (t, cpu) = (Instant::now(), cpu_seconds());
    let run = spanned(rec, "core.run_partitioned", || {
        run_partitioned(&left, &right, &initial, &truth, &cfg)
    });
    let partitioned_s = secs_since(t);
    rep.layer.insert("core.space_cpu_s", cpu_seconds() - cpu);

    rep.links = links_text(&left, &right, run.final_links.iter().copied());
    rep.final_f = run.final_quality().f_measure;
    rep.wall_s = secs_since(start);
    if let (Some(r), Some(root)) = (rec, root) {
        r.exit(root);
    }
    rep.attempted = 1;
    rep.waits_ms = vec![rep.wall_s * 1e3];
    rep.work = (left.len() + right.len()) as f64;

    let rounds_s: f64 = run.episodes.iter().map(|e| e.duration.as_secs_f64()).sum();
    // The spaces are built inside run_partitioned; what its rounds do not
    // account for is the build (plus id mapping and agent construction).
    let build_s = partitioned_s - rounds_s;
    rep.layer.insert("core.partition_rounds_s", rounds_s);
    rep.layer.insert("core.space_build_s", build_s);
    rep.layer.insert(
        "core.partition_skew",
        ratio(
            run.slowest_partition.as_secs_f64(),
            run.mean_partition.as_secs_f64(),
        ),
    );
    let busy_s = (pool_counter("parallel_busy_us_total", "space_build") - busy) as f64 / 1e6;
    rep.layer.insert(
        "parallel.space_build_efficiency",
        ratio(busy_s, build_s * THREADS as f64),
    );
    rep.layer
        .insert("parallel.steals", (steals() - steals_before) as f64);
    episode_tallies(&mut rep, &run.episodes);
    Ok(rep)
}

fn episode_tallies(rep: &mut Rep, episodes: &[alex::core::EpisodeReport]) {
    let sum = |f: fn(&alex::core::EpisodeReport) -> usize| -> f64 {
        episodes.iter().map(f).sum::<usize>() as f64
    };
    rep.layer.insert("core.links_added", sum(|e| e.added));
    rep.layer.insert("core.links_removed", sum(|e| e.removed));
    rep.layer.insert("core.rollbacks", sum(|e| e.rollbacks));
}

/// Build a space and record its per-layer readings.
fn build_space(
    left: &Dataset,
    right: &Dataset,
    layer: &mut BTreeMap<&'static str, f64>,
    rec: Option<&Arc<Recorder>>,
) -> LinkSpace {
    let busy = pool_counter("parallel_busy_us_total", "space_build");
    let (t, cpu) = (Instant::now(), cpu_seconds());
    let space = spanned(rec, "core.space_build", || {
        LinkSpace::build(left, right, &SpaceConfig::default())
    });
    let build_s = secs_since(t);
    layer.insert("core.space_build_s", build_s);
    layer.insert("core.space_cpu_s", cpu_seconds() - cpu);
    layer.insert("core.blocked_pairs", space.blocked_pairs() as f64);
    layer.insert("core.space_pairs", space.len() as f64);
    layer.insert(
        "core.space_keep_ratio",
        ratio(space.len() as f64, space.blocked_pairs() as f64),
    );
    let busy_s = (pool_counter("parallel_busy_us_total", "space_build") - busy) as f64 / 1e6;
    layer.insert(
        "parallel.space_build_efficiency",
        ratio(
            busy_s,
            build_s * alex::parallel::configured_threads() as f64,
        ),
    );
    space
}

// ---------------------------------------------------------- interactive --

struct InteractiveInputs {
    left: Dataset,
    right: Dataset,
    space: LinkSpace,
    initial: Vec<(u32, u32)>,
    truth: HashSet<(u32, u32)>,
    queries: Vec<alex::sparql::Query>,
    catalog: Catalog,
}

/// Answer-cache capacity of `alex improve --cache` by default.
const CACHE_CAPACITY: usize = 4096;

fn interactive_setup(seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Prepared, String> {
    let mut layer = BTreeMap::new();
    let pair = spanned(rec, "datagen.generate", || {
        generate_pair(&nba().config(seed))
    });
    let (left_text, right_text) = (
        ntriples::serialize(&pair.left),
        ntriples::serialize(&pair.right),
    );
    let truth = truth_links(&pair);
    drop(pair);

    let t = Instant::now();
    let left = spanned(rec, "rdf.parse", || parse("left", &left_text))?;
    let right = spanned(rec, "rdf.parse", || parse("right", &right_text))?;
    layer.insert("rdf.parse_s", secs_since(t));
    layer.insert("rdf.triples", (left.len() + right.len()) as f64);

    let (t, cpu) = (Instant::now(), cpu_seconds());
    let output = spanned(rec, "linking.paris", || {
        alex::Paris::new().link(&left, &right)
    });
    layer.insert("linking.paris_s", secs_since(t));
    layer.insert("linking.paris_cpu_s", cpu_seconds() - cpu);
    layer.insert("linking.links_out", output.links.len() as f64);
    let linked = SameAsLinks::from_pairs(
        output
            .term_pairs()
            .into_iter()
            .map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    );

    let initial = to_id_pairs(&left, &right, &linked);
    let truth_ids: HashSet<(u32, u32)> = to_id_pairs(&left, &right, &truth).into_iter().collect();
    let truth_iris: Vec<(String, String)> = truth
        .iter()
        .map(|l| (l.left.clone(), l.right.clone()))
        .collect();
    let queries = workload_from_links(&left, &right, &truth_iris, 50);
    if queries.is_empty() || truth_ids.is_empty() {
        return Err("the nba pair yielded no ground truth or no federated query".into());
    }
    let space = build_space(&left, &right, &mut layer, rec);
    let catalog = spanned(rec, "sparql.catalog", || {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(left.clone())));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(right.clone())));
        engine.build_catalog()
    })
    .map_err(|e| format!("catalog probe: {e}"))?;
    Ok(Prepared {
        state: State::Interactive(InteractiveInputs {
            left,
            right,
            space,
            initial,
            truth: truth_ids,
            queries,
            catalog,
        }),
        layer,
    })
}

/// One user session: `alex improve --feedback query --cache --catalog
/// probe` from its first federated query to convergence.
fn interactive_run(inputs: &InteractiveInputs, rec: Option<&Arc<Recorder>>) -> Result<Rep, String> {
    let mut rep = Rep::default();
    // Untraced, the endpoint wrappers only count calls, which tells the
    // answer waits apart from items served without a query.
    let probe = Arc::new(match rec {
        Some(_) => EndpointProbe::timing(),
        None => EndpointProbe::counting(),
    });
    let endpoint = |ds: &Dataset| -> Box<dyn Endpoint> {
        Box::new(TimedEndpoint::new(
            Box::new(DatasetEndpoint::new(ds.clone())),
            Arc::clone(&probe),
            rec.cloned(),
        ))
    };
    let mut engine = FederatedEngine::new();
    engine.add_endpoint(endpoint(&inputs.left));
    engine.add_endpoint(endpoint(&inputs.right));
    engine.enable_cache(CACHE_CAPACITY);
    engine.set_catalog(Some(inputs.catalog.clone()));
    let space = inputs.space.clone();
    let bridge = FeedbackBridge::new(
        &inputs.left,
        space.left_index(),
        &inputs.right,
        space.right_index(),
    );
    let cfg = AlexConfig {
        episode_size: 200,
        max_episodes: 40,
        ..AlexConfig::default()
    };
    let mut agent = Agent::new(space, &inputs.initial, cfg);
    let mut source = QueryFeedback::new(
        engine,
        inputs.left.clone(),
        inputs.right.clone(),
        inputs.queries.clone(),
        bridge,
        inputs.truth.clone(),
    );

    let names = [
        "alex_federated_queries_total",
        "alex_source_selection_probes_total",
        "federation_pruned_probes_total",
        "alex_query_feedback_errors_total",
        "federation_endpoint_errors_total",
        "federation_degraded_queries_total",
        "parallel_chunks_total",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
    let fed_busy = pool_counter("parallel_busy_us_total", "federation");
    let steals_before = steals();

    let start = Instant::now();
    let (report, sp) = spanned(rec, "core.driver", || {
        let mut timed = TimedSource::new(&mut source, true, Some(Arc::clone(&probe)), rec.cloned());
        let report = driver::run(&mut agent, &mut timed, &inputs.truth);
        (report, timed.probe)
    });
    rep.wall_s = secs_since(start);

    let delta: BTreeMap<&str, f64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| (*n, (counter(n) - b) as f64))
        .collect();
    rep.links = agent_links(&agent, &inputs.left, &inputs.right);
    rep.final_f = report.final_quality().f_measure;
    rep.waits_ms = sp.answer_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let queries = delta["alex_federated_queries_total"];
    rep.work = queries;
    rep.attempted = queries as u64;
    rep.failed = (delta["alex_query_feedback_errors_total"]
        + delta["federation_endpoint_errors_total"]
        + delta["federation_degraded_queries_total"]) as u64
        + source.degraded_total() as u64
        + report.degraded_episodes() as u64;

    let l = &mut rep.layer;
    l.insert("sparql.queries", queries);
    l.insert("sparql.queries_per_s", queries / rep.wall_s);
    l.insert(
        "sparql.pruned_probe_ratio",
        ratio(
            delta["federation_pruned_probes_total"],
            delta["alex_source_selection_probes_total"],
        ),
    );
    l.insert(
        "parallel.federation_busy_s",
        (pool_counter("parallel_busy_us_total", "federation") - fed_busy) as f64 / 1e6,
    );
    // The federation pool is the only pool a session dispatches to.
    l.insert("parallel.federation_chunks", delta["parallel_chunks_total"]);
    l.insert("parallel.steals", (steals() - steals_before) as f64);
    if let Some(stats) = source.engine().cache_stats() {
        l.insert(
            "cache.hit_ratio",
            ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        );
        l.insert("cache.invalidations", stats.invalidations as f64);
        l.insert("cache.evictions", stats.evictions as f64);
    }
    l.insert("core.blacklisted", agent.blacklisted() as f64);
    episode_tallies(&mut rep, &report.episodes);
    if rec.is_some() {
        source_layers(&mut rep, &sp);
        let wait_s = sp.answer_ns.iter().sum::<u64>() as f64 / 1e9;
        let busy_s = probe.busy_ns() as f64 / 1e9;
        let l = &mut rep.layer;
        l.insert("sparql.answer_wait_s", wait_s);
        l.insert("sparql.endpoint_calls", probe.calls() as f64);
        l.insert("sparql.endpoint_busy_s", busy_s);
        l.insert("sparql.executor_overhead_s", wait_s - busy_s);
        rep.samples.insert("sparql.answer_ms", rep.waits_ms.clone());
        rep.samples.insert(
            "sparql.endpoint_call_us",
            probe.call_ns().iter().map(|&ns| ns as f64 / 1e3).collect(),
        );
    }
    Ok(rep)
}

/// Agent-layer readings from a wrapped feedback source.
fn source_layers(rep: &mut Rep, sp: &crate::wrap::SourceProbe) {
    let items = sp.items as f64;
    let churn = rep.layer["core.links_added"] + rep.layer["core.links_removed"];
    rep.layer.insert("core.churn_per_step", ratio(churn, items));
    rep.layer
        .insert("core.feedback_steps_per_s", ratio(items, rep.wall_s));
    rep.samples.insert(
        "core.agent_step_us",
        sp.step_gap_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
    );
}

// -------------------------------------------------------------- durable --

struct DurableInputs {
    left: Dataset,
    right: Dataset,
    space: LinkSpace,
    initial: Vec<(u32, u32)>,
    truth: HashSet<(u32, u32)>,
}

fn durable_setup(seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Prepared, String> {
    let mut layer = BTreeMap::new();
    let pair = spanned(rec, "datagen.generate", || {
        generate_pair(&dbpedia_nytimes(DURABLE_DIVISOR).config(seed))
    });
    let initial_terms = sample_initial_links(&pair, InitialLinksSpec::high_p_low_r(seed));
    let (li, ri) = (pair.left.entity_index(), pair.right.entity_index());
    let ids = |pairs: &[(Term, Term)]| -> Vec<(u32, u32)> {
        pairs
            .iter()
            .filter_map(|&(l, r)| Some((li.id(l)?, ri.id(r)?)))
            .collect()
    };
    let initial = ids(&initial_terms);
    let truth: HashSet<(u32, u32)> = ids(&pair.ground_truth).into_iter().collect();
    if truth.is_empty() {
        return Err("the dbpedia-nytimes pair yielded no ground truth".into());
    }
    let space = build_space(&pair.left, &pair.right, &mut layer, rec);
    let GeneratedPair { left, right, .. } = pair;
    Ok(Prepared {
        state: State::Durable(DurableInputs {
            left,
            right,
            space,
            initial,
            truth,
        }),
        layer,
    })
}

/// Error rate of the simulated feedback (the paper's Appendix C).
const DURABLE_ERROR_RATE: f64 = 0.1;

/// `alex improve --state-dir DIR --partitions 1 --error-rate 0.1` on a
/// fresh state directory: at most 40 episodes of 1000 items, each
/// committed to the journal, with a snapshot every 10.
fn durable_run(
    inputs: &DurableInputs,
    scratch: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let dir: PathBuf = scratch.join("state");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let cfg = AlexConfig {
        episode_size: 1000,
        max_episodes: 40,
        ..AlexConfig::default()
    };
    let mut agent = Agent::new(inputs.space.clone(), &inputs.initial, cfg.clone());
    let mut oracle =
        OracleFeedback::with_error_rate(inputs.truth.clone(), DURABLE_ERROR_RATE, cfg.seed);
    let (store, recovery) =
        DirectStore::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    if !recovery.is_fresh() {
        return Err(format!("state dir {} was not fresh", dir.display()));
    }
    let mut commits: Vec<Instant> = Vec::new();

    // The episode loop over `store`: the run's result and what the counted
    // source observed.
    let drive = |store: &mut dyn Store| {
        let durability = Durability::new(store, recovery)
            .snapshot_every(10)
            .on_commit(|_| commits.push(Instant::now()));
        let mut counted = TimedSource::new(&mut oracle, rec.is_some(), None, rec.cloned());
        let result = spanned(rec, "core.run_durable", || {
            driver::run_durable(&mut agent, &mut counted, &inputs.truth, durability)
        });
        (result, counted.probe)
    };
    let start = Instant::now();
    // Only the traced run wraps the store.
    let (result, counted, store_probe) = match rec {
        Some(r) => {
            let mut timed = TimedStore::new(store, Arc::clone(r));
            let (result, counted) = drive(&mut timed);
            (result, counted, Some(timed.probe))
        }
        None => {
            let mut store = store;
            let (result, counted) = drive(&mut store);
            (result, counted, None)
        }
    };
    rep.wall_s = secs_since(start);
    let report = result?;
    let _ = std::fs::remove_dir_all(&dir);

    rep.links = agent_links(&agent, &inputs.left, &inputs.right);
    rep.final_f = report.final_quality().f_measure;
    rep.waits_ms = commits
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]).as_secs_f64() * 1e3)
        .collect();
    rep.work = counted.items as f64;
    rep.attempted = report.episodes.len() as u64;
    rep.failed = report.degraded_episodes() as u64 + u64::from(!report.is_complete());

    rep.layer
        .insert("core.blacklisted", agent.blacklisted() as f64);
    episode_tallies(&mut rep, &report.episodes);
    if let Some(sp) = store_probe {
        source_layers(&mut rep, &counted);
        let total_ns: u64 = sp.append_ns.iter().chain(&sp.snapshot_ns).sum();
        rep.layer.insert("store.busy_s", total_ns as f64 / 1e9);
        rep.layer.insert("store.bytes_written", sp.bytes as f64);
        rep.samples.insert(
            "store.append_us",
            sp.append_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
        );
        rep.samples.insert(
            "store.snapshot_ms",
            sp.snapshot_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        );
    }
    Ok(rep)
}
