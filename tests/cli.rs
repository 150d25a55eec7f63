//! End-to-end tests for the `alex` CLI binary: generate → stats → link →
//! improve → query, through real files.

use std::path::PathBuf;
use std::process::Command;

fn alex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_and_unknown_command() {
    let out = alex().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = alex().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_pipeline_gen_link_improve_query() {
    let dir = workdir("pipeline");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    // gen
    let out = alex()
        .args([
            "gen",
            "--out-dir",
            &dir.to_string_lossy(),
            "--pair",
            "nba",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["left.nt", "right.nt", "truth.nt"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // stats
    let out = alex()
        .args(["stats", &p("left.nt"), &p("right.nt")])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("triples"), "{stdout}");

    // link
    let out = alex()
        .args([
            "link",
            &p("left.nt"),
            &p("right.nt"),
            "--threshold",
            "0.95",
            "--out",
            &p("links.nt"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let links = std::fs::read_to_string(p("links.nt")).expect("links written");
    assert!(links.lines().count() > 40, "too few links:\n{links}");
    assert!(links.contains("owl#sameAs"));

    // improve
    let out = alex()
        .args([
            "improve",
            &p("left.nt"),
            &p("right.nt"),
            "--links",
            &p("links.nt"),
            "--truth",
            &p("truth.nt"),
            "--episodes",
            "8",
            "--episode-size",
            "50",
            "--partitions",
            "1",
            "--out",
            &p("improved.nt"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("initial"), "{stdout}");
    let improved = std::fs::read_to_string(p("improved.nt")).expect("improved written");
    assert!(!improved.is_empty(), "improved links written");
    // ALEX legitimately removes wrong links, so the improved set may be
    // smaller than the input — what must not regress is quality.
    let f_values: Vec<f64> = stdout
        .lines()
        .filter_map(|l| l.split("F ").nth(1)?.trim().parse().ok())
        .collect();
    assert!(
        f_values.len() >= 2,
        "expected initial + episode F-measures:\n{stdout}"
    );
    let (initial_f, final_f) = (f_values[0], *f_values.last().unwrap());
    assert!(
        final_f >= initial_f,
        "ALEX should not degrade F-measure: {initial_f} -> {final_f}\n{stdout}"
    );

    // query with links: a federated ASK.
    let out = alex()
        .args([
            "query",
            "--data",
            &p("left.nt"),
            "--data",
            &p("right.nt"),
            "--links",
            &p("improved.nt"),
            "ASK { ?s <http://dbpedia-nba.example.org/ontology/label> ?n }",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_select_prints_bindings() {
    let dir = workdir("query");
    let data = dir.join("data.nt");
    std::fs::write(
        &data,
        "<http://e/a> <http://e/name> \"Alice\" .\n<http://e/b> <http://e/name> \"Bob\" .\n",
    )
    .expect("write");
    let out = alex()
        .args([
            "query",
            "--data",
            &data.to_string_lossy(),
            "SELECT ?n WHERE { ?s <http://e/name> ?n } ORDER BY ?n",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "n");
    assert!(lines[1].contains("Alice"));
    assert!(lines[2].contains("Bob"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `alex improve --telemetry --metrics-dump --verbose`: the event log and
/// metrics dump must be parseable and reconcile with the printed report.
#[test]
fn improve_telemetry_outputs_reconcile() {
    use alex::telemetry::Event;

    let dir = workdir("telemetry");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let out = alex()
        .args([
            "gen",
            "--out-dir",
            &dir.to_string_lossy(),
            "--pair",
            "nba",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = alex()
        .args([
            "improve",
            &p("left.nt"),
            &p("right.nt"),
            "--links",
            &p("truth.nt"), // start from truth subset semantics: any valid links work
            "--truth",
            &p("truth.nt"),
            "--episodes",
            "5",
            "--episode-size",
            "40",
            "--partitions",
            "1",
            "--out",
            &p("improved.nt"),
            "--telemetry",
            &p("events.jsonl"),
            "--metrics-dump",
            &p("metrics.prom"),
            "--verbose",
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stderr}");

    // Every JSONL line parses back into a typed event.
    let jsonl = std::fs::read_to_string(p("events.jsonl")).expect("telemetry written");
    let events: Vec<Event> = jsonl
        .lines()
        .map(|l| Event::parse(l).unwrap_or_else(|e| panic!("bad event line {l:?}: {e}")))
        .collect();
    assert!(!events.is_empty());

    // Exactly one episode_end per reported episode ("ep N" stdout lines).
    let reported_episodes = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("ep "))
        .count();
    let episode_ends: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::EpisodeEnd { .. }))
        .collect();
    assert_eq!(
        episode_ends.len(),
        reported_episodes,
        "one episode_end event per reported episode\n{stdout}\n{jsonl}"
    );

    // The metrics dump is Prometheus text format; pull the link counters.
    let prom = std::fs::read_to_string(p("metrics.prom")).expect("metrics written");
    let counter = |name: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.trim().parse().expect("counter value"))
            .unwrap_or(0)
    };
    assert!(
        prom.contains("# TYPE alex_links_added_total counter"),
        "{prom}"
    );
    let (added_total, removed_total) = (
        counter("alex_links_added_total"),
        counter("alex_links_removed_total"),
    );

    // Counters reconcile with the per-episode event sums...
    let (mut ev_added, mut ev_removed) = (0u64, 0u64);
    for e in &episode_ends {
        if let Event::EpisodeEnd { added, removed, .. } = e {
            ev_added += added;
            ev_removed += removed;
        }
    }
    assert_eq!(
        added_total, ev_added,
        "added counter vs episode events\n{prom}"
    );
    assert_eq!(
        removed_total, ev_removed,
        "removed counter vs episode events\n{prom}"
    );

    // ...and with the candidate-set delta: final = initial + added - removed.
    let initial_usable: u64 = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("initial links: ")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .expect("initial links line on stderr");
    let final_links = std::fs::read_to_string(p("improved.nt"))
        .expect("improved written")
        .lines()
        .count() as u64;
    assert_eq!(
        final_links,
        initial_usable + added_total - removed_total,
        "candidate-set delta must match the counters\n{stderr}\n{prom}"
    );

    // --verbose printed the span summary.
    assert!(
        stderr.contains("improve_partitioned"),
        "span summary on stderr:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn improve_rejects_missing_inputs() {
    // Nonexistent data files fail cleanly.
    let out = alex()
        .args(["improve", "/nonexistent-a.nt", "/nonexistent-b.nt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // With readable data but no --links, the flag error surfaces.
    let dir = workdir("missing-flags");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();
    let out = alex().args(["improve", &d, &d]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--links"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn turtle_files_are_accepted() {
    let dir = workdir("turtle");
    let data = dir.join("data.ttl");
    std::fs::write(
        &data,
        "@prefix ex: <http://e/> .\nex:a ex:name \"Alice\" ; a ex:Person .\n",
    )
    .expect("write");
    let out = alex()
        .args(["stats", &data.to_string_lossy()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("2"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--feedback query` judges answers against --truth, so flags that only
/// shape the partitioned oracle run are rejected instead of ignored.
#[test]
fn query_feedback_rejects_oracle_only_flags() {
    let dir = workdir("query-flags");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();
    let run = |extra: &[&str]| {
        let mut args = vec!["improve", &d, &d, "--links", &d, "--truth", &d];
        args.extend(extra);
        alex().args(&args).output().expect("spawn")
    };

    let out = run(&[
        "--feedback",
        "query",
        "--partitions",
        "4",
        "--error-rate",
        "0.5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("query feedback runs are single-partition"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&["--feedback", "query", "--error-rate", "0.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--error-rate requires oracle feedback"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&["--trust", "--feedback", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--feedback must be 'oracle' or 'query'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability, a one-source population, and an unbreachable budget are
/// layers on the same single-agent loop: none may change the links.
#[test]
fn single_agent_modes_write_identical_links() {
    let dir = workdir("single-agent");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let ok = |out: std::process::Output| {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    ok(alex()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen"));
    ok(alex()
        .args([
            "link",
            &p("left.nt"),
            &p("right.nt"),
            "--threshold",
            "0.95",
            "--out",
            &p("links.nt"),
        ])
        .output()
        .expect("spawn link"));

    let improve = |out_file: &str, extra: &[&str]| {
        let (left, right, links, truth, out) = (
            p("left.nt"),
            p("right.nt"),
            p("links.nt"),
            p("truth.nt"),
            p(out_file),
        );
        let mut args = vec![
            "improve",
            &left,
            &right,
            "--links",
            &links,
            "--truth",
            &truth,
            "--episodes",
            "8",
            "--episode-size",
            "50",
            "--error-rate",
            "0.1",
            "--out",
            &out,
        ];
        args.extend(extra);
        ok(alex().args(&args).output().expect("spawn improve"));
        std::fs::read(&out).expect("improved links")
    };
    let state_dir = p("state");
    let durable = improve("durable.nt", &["--state-dir", &state_dir]);
    let population = improve("sources.nt", &["--sources", "1"]);
    let supervised = improve(
        "supervised.nt",
        &[
            "--episode-budget-ms",
            "3600000",
            "--budget-policy",
            "continue",
        ],
    );
    assert!(!durable.is_empty());
    assert_eq!(durable, population, "--sources 1 diverged from --state-dir");
    assert_eq!(
        durable, supervised,
        "budgeted run diverged from --state-dir"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
