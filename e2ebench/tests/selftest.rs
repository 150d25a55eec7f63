//! Self-tests of the benchmark's own arithmetic and wrappers.

use std::path::PathBuf;
use std::sync::Arc;

use e2ebench::runner::{self, Options, END_TO_END, PER_LAYER};
use e2ebench::spans::{self, Recorder, Span};
use e2ebench::stats::{beyond, nearest_rank, percentile, percentile_supported, quartiles};
use e2ebench::workloads;

#[test]
fn nearest_rank_percentiles() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), 50.0);
    assert_eq!(percentile(&samples, 90.0), 90.0);
    assert_eq!(percentile(&samples, 99.0), 99.0);
    assert_eq!(percentile(&samples, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    // Rank ceil(p/100 · n): 0.5 · 5 = 2.5 → rank 3.
    assert_eq!(nearest_rank(5, 50.0), 3);
    assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
}

#[test]
fn ten_samples_beyond_rule() {
    assert_eq!(beyond(100, 90.0), 10);
    assert!(percentile_supported(100, 90.0));
    assert!(!percentile_supported(99, 90.0));
    // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(percentile_supported(1000, 99.0));
    assert!(!percentile_supported(999, 99.0));
    assert!(!percentile_supported(0, 50.0));
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        group: 1,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let tree = vec![
        span(1, None, "root", 0, 100),
        // Two children that overlap, as parallel endpoint calls do.
        span(2, Some(1), "a", 10, 40),
        span(3, Some(1), "b", 30, 60),
        span(4, Some(2), "leaf", 15, 20),
        // A child running past its parent's end only covers the overlap.
        span(5, Some(1), "c", 90, 120),
    ];
    let self_ns = spans::self_times(&tree);
    assert_eq!(self_ns, vec![100 - 50 - 10, 30 - 5, 30, 5, 30]);
    let by_group = spans::self_seconds_by_group(&tree, &self_ns, "a");
    assert_eq!(by_group, vec![25e-9]);
}

#[test]
fn span_file_merges_runs_of_sibling_calls() {
    let spans = vec![
        span(2, Some(1), "call", 0, 10),
        span(3, Some(1), "call", 12, 15),
        span(4, Some(1), "other", 15, 20),
        span(1, None, "root", 0, 30),
    ];
    let text = spans::to_jsonl(&spans);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"start_ns\":0,\"end_ns\":15,\"count\":2,\"busy_ns\":13"));
    assert!(lines[1].contains("\"name\":\"other\"") && lines[1].contains("\"count\":1"));
    assert!(lines[2].contains("\"parent\":null"));
}

#[test]
fn recorder_nests_spans_and_parents_leaves() {
    let rec = Recorder::default();
    rec.set_group(7);
    let outer = rec.enter("outer");
    let inner = rec.enter("inner");
    let now = std::time::Instant::now();
    rec.leaf("leaf", now, now);
    rec.exit(inner);
    rec.exit(outer);
    let spans = rec.spans();
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
    assert_eq!(by_name("outer").parent, None);
    assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
    assert_eq!(by_name("leaf").parent, Some(by_name("inner").id));
    assert!(spans.iter().all(|s| s.group == 7));
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("e2ebench-selftest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Wrapping the endpoints and the feedback source (interactive) or the
/// feedback source and the store (durable) must not change a single byte
/// of the output links.
fn wrapped_run_is_byte_identical(workload: &str) {
    let dir = scratch(workload);
    let prepared = workloads::setup(workload, 3, None).expect("setup");
    let plain = workloads::run_once(&prepared, &dir, None).expect("plain run");
    let rec = Arc::new(Recorder::default());
    let traced = workloads::run_once(&prepared, &dir, Some(&rec)).expect("traced run");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(!plain.links.is_empty());
    assert_eq!(plain.links, traced.links);
    assert_eq!(plain.final_f.to_bits(), traced.final_f.to_bits());
    assert_eq!(plain.attempted, traced.attempted);
    assert!(!rec.spans().is_empty());
}

#[test]
fn wrapping_endpoints_and_source_keeps_links() {
    wrapped_run_is_byte_identical("interactive-nba");
}

#[test]
fn wrapping_source_and_store_keeps_links() {
    wrapped_run_is_byte_identical("durable-dbpedia-nytimes");
}

/// A run shorter than the batch pipelines its waits need runs on until
/// each reported wait percentile has ten samples beyond it.
#[test]
fn short_run_collects_enough_waits() {
    let dir = scratch("short");
    let outcome = runner::run(&Options {
        workload: "batch-dbpedia-nytimes".into(),
        seed: 3,
        seconds: 0.1,
        trace: false,
        out_dir: dir.clone(),
    })
    .expect("run");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    // A batch pipeline is one attempted operation and one wait.
    assert!(
        percentile_supported(outcome.attempted as usize, 75.0),
        "{} waits",
        outcome.attempted
    );
    let detail = &outcome.detail;
    let waits = &detail[detail.find("\"wait_ms\":").expect("wait_ms in detail")..];
    let waits = &waits[..waits
        .find("\"wait_ms_distribution\"")
        .expect("distribution")];
    assert_eq!(waits.matches("\"supported\":true").count(), 2, "{waits}");
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in workloads::WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
    let declared = text.matches("{\"name\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + workloads::WORKLOADS.len()
    );
}
