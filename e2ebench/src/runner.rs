//! One benchmark run: set up, check correctness, time the repeated unit,
//! and reduce what was observed to the declared metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::procfs;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::workloads::{self, Prepared, Rep, THREADS};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wait_p50_ms", "ms"),
    ("wait_p75_ms", "ms"),
    ("work_per_s", "1/s"),
    ("final_f", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that does
/// no work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.unit_s", "s"),
    ("rdf.parse_s", "s"),
    ("rdf.triples", "count"),
    ("linking.paris_s", "s"),
    ("linking.paris_cpu_s", "s"),
    ("linking.links_out", "count"),
    ("linking.simmemo_hit_ratio", "ratio"),
    ("core.space_build_s", "s"),
    ("core.space_cpu_s", "s"),
    ("core.blocked_pairs", "count"),
    ("core.space_pairs", "count"),
    ("core.space_keep_ratio", "ratio"),
    ("core.partition_rounds_s", "s"),
    ("core.partition_skew", "ratio"),
    ("core.agent_step_us_p50", "us"),
    ("core.agent_step_us_p99", "us"),
    ("core.links_added", "count"),
    ("core.links_removed", "count"),
    ("core.churn_per_step", "ratio"),
    ("core.rollbacks", "count"),
    ("core.blacklisted", "count"),
    ("core.feedback_steps_per_s", "1/s"),
    ("sparql.answer_p50_ms", "ms"),
    ("sparql.answer_p99_ms", "ms"),
    ("sparql.queries_per_s", "1/s"),
    ("sparql.answer_wait_s", "s"),
    ("sparql.endpoint_calls", "count"),
    ("sparql.endpoint_busy_s", "s"),
    ("sparql.endpoint_call_us_p50", "us"),
    ("sparql.executor_overhead_s", "s"),
    ("sparql.queries", "count"),
    ("sparql.pruned_probe_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("parallel.space_build_efficiency", "ratio"),
    ("parallel.federation_busy_s", "s"),
    ("parallel.federation_chunks", "count"),
    ("parallel.steals", "count"),
    ("store.append_us_p50", "us"),
    ("store.snapshot_ms_p50", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.busy_s", "s"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("bench.pipeline.self_s", "s"),
    ("rdf.parse.self_s", "s"),
    ("linking.paris.self_s", "s"),
    ("core.space_build.self_s", "s"),
    ("core.run_partitioned.self_s", "s"),
    ("core.driver.self_s", "s"),
    ("core.run_durable.self_s", "s"),
    ("feedback.next_item.self_s", "s"),
    ("sparql.endpoint.self_s", "s"),
    ("store.append.self_s", "s"),
    ("store.snapshot.self_s", "s"),
];

/// Pooled-sample percentiles: `(metric, sample pool, percentile)`.
const PERCENTILES: &[(&str, &str, f64)] = &[
    ("core.agent_step_us_p50", "core.agent_step_us", 50.0),
    ("core.agent_step_us_p99", "core.agent_step_us", 99.0),
    ("sparql.answer_p50_ms", "sparql.answer_ms", 50.0),
    ("sparql.answer_p99_ms", "sparql.answer_ms", 99.0),
    (
        "sparql.endpoint_call_us_p50",
        "sparql.endpoint_call_us",
        50.0,
    ),
    ("store.append_us_p50", "store.append_us", 50.0),
    ("store.snapshot_ms_p50", "store.snapshot_ms", 50.0),
];

/// Percentiles of the end-to-end waits, `wait_p50_ms` and `wait_p75_ms`.
/// The timed region runs on until each has at least
/// [`stats::MIN_BEYOND`] waits beyond it.
const WAIT_PERCENTILES: [f64; 2] = [50.0, 75.0];

/// Longest the timed region may last when it runs on past `--seconds` to
/// collect enough waits, s; beyond it the run fails, so that a run ends
/// within three minutes.
const MAX_REGION_S: f64 = 120.0;

/// Share of the timed region given to further setup passes (cycling over
/// the data sets), so that `setup_s` — the median pass — samples the whole
/// run rather than its first seconds.
pub const SETUP_SHARE: f64 = 0.2;

/// Upper limit on setup passes (span groups of setup passes stay below the
/// timed units' group ids).
const MAX_SETUP_PASSES: usize = 500;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for scratch state and the span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A finished, verified run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted across the timed units.
    pub attempted: u64,
    /// Operations that failed (always 0: a failure aborts the run).
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// JSON object with the run manifest and per-metric statistics.
    pub detail: String,
    /// Where the traced run's spans were written.
    pub span_file: Option<PathBuf>,
}

/// The commit the working directory is at, when it is a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite measurement {v}"))
    }
}

/// `{median, q1, q3, n}` of per-unit values.
fn spread_json(values: &[f64]) -> Result<String, String> {
    let (q1, q3) = stats::quartiles(values);
    Ok(format!(
        "{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
        json_num(stats::median(values))?,
        json_num(q1)?,
        json_num(q3)?,
        values.len()
    ))
}

/// `{n, beyond, supported}` of a pooled percentile.
fn percentile_json(n: usize, p: f64) -> String {
    let beyond = if n == 0 { 0 } else { stats::beyond(n, p) };
    format!(
        "{{\"p\":{p},\"n\":{n},\"beyond\":{beyond},\"supported\":{}}}",
        stats::percentile_supported(n, p)
    )
}

fn check_rep(rep: &Rep, reference: &Rep, what: &str) -> Result<(), String> {
    if rep.failed > 0 {
        return Err(format!(
            "{what}: {} of {} operations failed or degraded",
            rep.failed, rep.attempted
        ));
    }
    if rep.links != reference.links {
        return Err(format!(
            "{what}: final link set differs from the 1-thread reference \
             ({} vs {} bytes)",
            rep.links.len(),
            reference.links.len()
        ));
    }
    if rep.final_f.to_bits() != reference.final_f.to_bits() {
        return Err(format!(
            "{what}: final F {} differs from the 1-thread reference {}",
            rep.final_f, reference.final_f
        ));
    }
    Ok(())
}

/// Execute one run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !workloads::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}'; expected one of {}",
            opts.workload,
            workloads::WORKLOADS.join(", ")
        ));
    }
    let scratch = opts.out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let result = run_in(opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Seed of data set `j` of a run with seed `seed`: data set 0 is the
/// run's own seed.
pub fn dataset_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(1_000_003))
}

/// One setup pass on data set `j`, recorded as span group `group`.
fn setup_pass(
    name: &str,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    group: u64,
) -> Result<(Prepared, f64), String> {
    if let Some(r) = rec {
        r.set_group(group);
    }
    let root = rec.map(|r| r.enter("bench.setup"));
    let t = Instant::now();
    let p = workloads::setup(name, seed, rec)?;
    let secs = t.elapsed().as_secs_f64();
    if let (Some(r), Some(root)) = (rec, root) {
        r.exit(root);
    }
    Ok((p, secs))
}

fn run_in(opts: &Options, scratch: &Path) -> Result<Outcome, String> {
    let name = opts.workload.as_str();
    let datasets = workloads::datasets(name);
    let seeds: Vec<u64> = (0..datasets).map(|j| dataset_seed(opts.seed, j)).collect();

    // Correctness reference: every data set end to end on one thread,
    // untimed. Every timed unit must reproduce its links byte for byte.
    alex::parallel::set_threads(1);
    let mut references = Vec::with_capacity(datasets);
    for &seed in &seeds {
        let prepared = workloads::setup(name, seed, None)?;
        let reference = workloads::run_once(&prepared, scratch, None)?;
        check_rep(&reference, &reference, "1-thread reference")?;
        references.push(reference);
    }
    alex::parallel::set_threads(THREADS);

    let recorder = opts.trace.then(|| Arc::new(Recorder::default()));
    let rec = recorder.as_ref();

    // Every data set is set up once before the timed region; further setup
    // passes are spread through it (see SETUP_SHARE).
    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    let mut prepared = Vec::with_capacity(datasets);
    for (j, &seed) in seeds.iter().enumerate() {
        let (p, secs) = setup_pass(name, seed, rec, j as u64 + 1)?;
        setup_s.push(secs);
        setup_layers.push(p.layer.clone());
        prepared.push(p);
    }

    // The timed region: whole units, round-robin over the data sets, until
    // the time is up and the reported wait percentiles are supported. A
    // traced run interleaves each untraced unit with a traced one on the
    // same data set.
    let mut waits_seen = 0usize;
    let mut unit_rss_mb = Vec::new();
    let mut plain: Vec<Vec<Rep>> = vec![Vec::new(); datasets];
    let mut traced: Vec<Vec<Rep>> = vec![Vec::new(); datasets];
    let mut overhead = Vec::new();
    let started = Instant::now();
    let mut setup_in_region = 0.0;
    let mut unit = 0usize;
    while unit < datasets
        || started.elapsed().as_secs_f64() < opts.seconds
        || !WAIT_PERCENTILES
            .iter()
            .all(|&p| stats::percentile_supported(waits_seen, p))
    {
        if started.elapsed().as_secs_f64() > opts.seconds.max(MAX_REGION_S) {
            return Err(format!(
                "only {waits_seen} waits after {unit} units, too few for the \
                 reported percentiles"
            ));
        }
        let j = unit % datasets;
        if setup_in_region < SETUP_SHARE * started.elapsed().as_secs_f64()
            && setup_s.len() < MAX_SETUP_PASSES
        {
            let k = setup_s.len() % datasets;
            let (p, secs) = setup_pass(name, seeds[k], rec, setup_s.len() as u64 + 1)?;
            setup_in_region += secs;
            setup_s.push(secs);
            setup_layers.push(p.layer.clone());
            prepared[k] = p;
        }
        // Memory of the unit alone: the peak above the resident set it
        // starts from (its inputs and every other data set included).
        procfs::release_free_heap();
        procfs::reset_peak_rss()?;
        let rss_before = procfs::rss_mb()?;
        let rep = workloads::run_once(&prepared[j], scratch, None)?;
        unit_rss_mb.push(procfs::peak_rss_mb()? - rss_before);
        check_rep(&rep, &references[j], &format!("unit {}", unit + 1))?;
        waits_seen += rep.waits_ms.len();
        if let Some(r) = rec {
            r.set_group(1000 + unit as u64);
            let t = workloads::run_once(&prepared[j], scratch, Some(r))?;
            check_rep(&t, &references[j], &format!("traced unit {}", unit + 1))?;
            overhead.push(t.wall_s / rep.wall_s - 1.0);
            traced[j].push(t);
        }
        plain[j].push(rep);
        unit += 1;
    }

    let units = if opts.trace { &traced } else { &plain };
    let attempted: u64 = units.iter().flatten().map(|r| r.attempted).sum();
    let waits: Vec<f64> = plain
        .iter()
        .flatten()
        .flat_map(|r| r.waits_ms.iter().copied())
        .collect();
    // Work rate: per data set the median unit, then the mean over data
    // sets, so that the mix of inputs weighs the same in every run.
    let per_set_rate: Vec<f64> = plain
        .iter()
        .map(|reps| {
            let rates: Vec<f64> = reps.iter().map(|r| r.work / r.wall_s).collect();
            stats::median(&rates)
        })
        .collect();
    let work_per_s = per_set_rate.iter().sum::<f64>() / datasets as f64;
    let peak_rss_mb = stats::median(&unit_rss_mb);
    let final_f = references.iter().map(|r| r.final_f).sum::<f64>() / datasets as f64;

    let mut detail = format!(
        "{{\"manifest\":{{\"workload\":{},\"seed\":{},\"dataset_seeds\":[{}],\"seconds\":{},\
         \"trace\":{},\"threads\":{},\"host_cores\":{},\"commit\":{},\"rustc\":{},\
         \"profile\":{},\"setup_passes\":{},\"units\":{},\"batch_divisor\":{},\
         \"durable_divisor\":{}}}",
        json_str(name),
        opts.seed,
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        json_num(opts.seconds)?,
        opts.trace,
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&commit()),
        json_str(env!("E2EBENCH_RUSTC")),
        json_str(env!("E2EBENCH_PROFILE")),
        setup_s.len(),
        unit,
        workloads::BATCH_DIVISOR,
        workloads::DURABLE_DIVISOR,
    );

    let (metrics, span_file) = if opts.trace {
        let spans = recorder.as_ref().map(|r| r.spans()).unwrap_or_default();
        let traced: Vec<Rep> = traced.into_iter().flatten().collect();
        let metrics = per_layer(&setup_layers, &traced, &overhead, &spans, &mut detail)?;
        let path = opts
            .out_dir
            .join(format!("trace-{name}-seed{}.jsonl", opts.seed));
        std::fs::write(&path, spans::to_jsonl(&spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        (metrics, Some(path))
    } else {
        detail.push_str(&format!(
            ",\"setup_s\":{},\"peak_rss_mb_per_unit\":{},\"work_per_s_per_dataset\":{},\"final_f_per_dataset\":[{}],\
             \"wait_ms\":{{\"p50\":{},\"p75\":{}}},\"wait_ms_distribution\":{{{}}}",
            spread_json(&setup_s)?,
            spread_json(&unit_rss_mb)?,
            spread_json(&per_set_rate)?,
            references
                .iter()
                .map(|r| json_num(r.final_f))
                .collect::<Result<Vec<_>, _>>()?
                .join(","),
            percentile_json(waits.len(), WAIT_PERCENTILES[0]),
            percentile_json(waits.len(), WAIT_PERCENTILES[1]),
            [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0]
                .iter()
                .map(|&p| Ok(format!(
                    "\"p{p}\":{}",
                    json_num(stats::percentile(&waits, p))?
                )))
                .collect::<Result<Vec<_>, String>>()?
                .join(","),
        ));
        let value = |n: &str| -> f64 {
            match n {
                "setup_s" => stats::median(&setup_s),
                "wait_p50_ms" => stats::percentile(&waits, WAIT_PERCENTILES[0]),
                "wait_p75_ms" => stats::percentile(&waits, WAIT_PERCENTILES[1]),
                "work_per_s" => work_per_s,
                "final_f" => final_f,
                "peak_rss_mb" => peak_rss_mb,
                other => unreachable!("undeclared end-to-end metric {other}"),
            }
        };
        let metrics = END_TO_END
            .iter()
            .map(|&(n, unit)| Metric {
                name: n,
                unit,
                value: value(n),
            })
            .collect();
        (metrics, None)
    };
    detail.push('}');
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics,
        detail,
        span_file,
    })
}

/// Reduce the traced run to the declared per-layer metrics: per-unit
/// values as medians over traced units (over setup passes for layers that
/// only work during setup), pooled percentiles, span self times, and the
/// signed tracing overhead.
fn per_layer(
    setup_layers: &[BTreeMap<&'static str, f64>],
    traced: &[Rep],
    overhead: &[f64],
    spans: &[Span],
    detail: &mut String,
) -> Result<Vec<Metric>, String> {
    let self_ns = spans::self_times(spans);
    let mut pooled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in traced {
        for (k, v) in &rep.samples {
            pooled.entry(k).or_default().extend(v);
        }
    }
    let per_unit = |reps: &mut dyn Iterator<Item = &BTreeMap<&'static str, f64>>, n: &str| {
        let values: Vec<f64> = reps.filter_map(|m| m.get(n).copied()).collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };

    let mut percentiles = Vec::new();
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(n, unit) in PER_LAYER {
        let value = if let Some(span) = n.strip_suffix(".self_s") {
            let by_group = spans::self_seconds_by_group(spans, &self_ns, span);
            if by_group.is_empty() {
                0.0
            } else {
                stats::median(&by_group)
            }
        } else if let Some(&(_, pool, p)) = PERCENTILES.iter().find(|(m, _, _)| *m == n) {
            let samples = pooled.get(pool).map(Vec::as_slice).unwrap_or(&[]);
            percentiles.push(format!(
                "{}:{}",
                json_str(n),
                percentile_json(samples.len(), p)
            ));
            if samples.is_empty() {
                0.0
            } else {
                stats::percentile(samples, p)
            }
        } else if n == "telemetry.trace_overhead_ratio" {
            stats::median(overhead)
        } else {
            per_unit(&mut traced.iter().map(|r| &r.layer), n)
                .or_else(|| per_unit(&mut setup_layers.iter(), n))
                .unwrap_or(0.0)
        };
        metrics.push(Metric {
            name: n,
            unit,
            value,
        });
    }
    detail.push_str(&format!(
        ",\"trace_overhead_ratio\":{},\"percentiles\":{{{}}}",
        spread_json(overhead)?,
        percentiles.join(",")
    ));
    Ok(metrics)
}
