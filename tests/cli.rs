//! Integration tests for the `mdwh` command-line frontend: generate a
//! store on disk, then drive every subcommand against it.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn mdwh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mdwh"))
}

/// A shared generated store (built once per test binary run).
fn store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mdwh-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let output = mdwh()
            .args(["generate", "--scale", "small", "--out"])
            .arg(&dir)
            .output()
            .expect("run mdwh generate");
        assert!(
            output.status.success(),
            "generate failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        dir
    })
}

fn run_ok(args: &[&str]) -> String {
    let dir = store_dir();
    let output = mdwh()
        .args(args.iter().flat_map(|a| {
            if *a == "@STORE" {
                vec!["--store", dir.to_str().unwrap()]
            } else {
                vec![*a]
            }
        }))
        .output()
        .expect("run mdwh");
    assert!(
        output.status.success(),
        "mdwh {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).to_string()
}

#[test]
fn info_reports_scale() {
    let out = run_ok(&["info", "@STORE"]);
    assert!(out.contains("model:   DWH_CURR"));
    assert!(out.contains("nodes:"));
    assert!(out.contains("derived:"));
}

#[test]
fn census_prints_table1() {
    let out = run_ok(&["census", "@STORE"]);
    assert!(out.contains("Table I census"));
    assert!(out.contains("Hierarchies"));
}

#[test]
fn search_with_synonyms() {
    let plain = run_ok(&["search", "@STORE", "client"]);
    let expanded = run_ok(&["search", "@STORE", "client", "--synonyms"]);
    assert!(expanded.contains("expanded to: client, customer, partner"));
    // Synonyms can only widen the result set.
    let count = |s: &str| {
        s.lines()
            .find(|l| l.contains("distinct matching instance"))
            .and_then(|l| l.trim().split(' ').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0)
    };
    assert!(count(&expanded) >= count(&plain));
}

#[test]
fn lineage_downstream_and_filtered() {
    let out = run_ok(&["lineage", "@STORE", "dwh_stage0_item0"]);
    assert!(out.contains("Lineage from dwh_stage0_item0"));
    assert!(out.contains("--isMappedTo"));
    let filtered = run_ok(&[
        "lineage",
        "@STORE",
        "dwh_stage0_item0",
        "--rule-filter",
        "segment = 'PB'",
    ]);
    assert!(filtered.contains("endpoints"));
}

#[test]
fn audit_lists_roles() {
    let out = run_ok(&["audit", "@STORE", "dwh_stage2_item0"]);
    assert!(out.contains("Access audit for dwh_stage2_item0"));
    assert!(out.contains("distinct users with access:"));
}

#[test]
fn sparql_pattern_and_full_query() {
    let out = run_ok(&["sparql", "@STORE", "{ ?x rdf:type dm:Application }"]);
    assert!(out.contains("rows)"));
    let out = run_ok(&[
        "sparql",
        "@STORE",
        "SELECT (COUNT(*) AS ?n) WHERE { ?x a dm:Application }",
    ]);
    assert!(out.contains("(1 rows)"));
    assert!(out.contains('3')); // small corpus has 3 applications
    // ASK through the full-query path.
    let out = run_ok(&["sparql", "@STORE", "ASK { ?x a dm:Application }"]);
    assert!(out.contains("true"));
}

#[test]
fn sources_ranks_candidates() {
    let out = run_ok(&["sources", "@STORE", "Party"]);
    assert!(out.contains("Data sources for concept Party"));
}

#[test]
fn search_with_step_budget_reports_truncation() {
    let out = run_ok(&["search", "@STORE", "client", "--max-steps", "0"]);
    assert!(out.contains("truncated"), "expected truncation note in: {out}");
}

#[test]
fn lineage_with_generous_deadline_stays_complete() {
    let out = run_ok(&[
        "lineage",
        "@STORE",
        "dwh_stage0_item0",
        "--deadline-ms",
        "10000",
    ]);
    assert!(out.contains("Lineage from dwh_stage0_item0"));
    assert!(!out.contains("truncated"), "unexpected truncation in: {out}");
}

#[test]
fn sparql_with_row_budget_returns_tagged_partial() {
    let out = run_ok(&["sparql", "@STORE", "{ ?x rdf:type ?c }", "--max-rows", "2"]);
    assert!(out.contains("(2 rows)"));
    assert!(out.contains("truncated (row limit)"), "missing verdict in: {out}");
}

#[test]
fn drill_overload_sheds_without_panicking() {
    let output = mdwh()
        .args([
            "drill",
            "overload",
            "--threads",
            "8",
            "--requests",
            "32",
            "--quota",
            "1",
            "--expect-shed",
        ])
        .output()
        .expect("run mdwh drill overload");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "drill failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "worker panicked: {stderr}");
    let shed: u64 = stdout
        .lines()
        .find(|l| l.starts_with("shed:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .expect("shed line present");
    assert!(shed > 0, "forced-low quotas must shed: {stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = mdwh().arg("frobnicate").output().expect("run mdwh");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn store_round_trips_through_recover_and_reopen() {
    // A store of its own: recover rewrites the directory.
    let dir = std::env::temp_dir().join(format!("mdwh-cli-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |args: &[&str]| {
        let output = mdwh().args(args).arg("--store").arg(&dir).output().expect("run mdwh");
        let stdout = String::from_utf8_lossy(&output.stdout).to_string();
        assert!(
            output.status.success(),
            "mdwh {args:?} failed: {stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout
    };
    let generated = mdwh()
        .args(["generate", "--scale", "small", "--out"])
        .arg(&dir)
        .output()
        .expect("run mdwh generate");
    assert!(generated.status.success());
    let before = run(&["info"]);

    // Tear the journal tail the way a crash in mid-append would.
    let journal = dir.join("journal.log");
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(b"B 99 1 DWH_CURR\n+ <http://ex");
    std::fs::write(&journal, &bytes).unwrap();
    // Read commands leave the damage as found, for fsck and recover.
    let listing = || {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap_or_default();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let damaged = listing();
    assert_eq!(run(&["info"]), before);
    assert!(run(&["search", "customer"]).contains("customer"));
    assert_eq!(listing(), damaged, "a read command changed the store");
    let fsck = mdwh().args(["fsck", "--store"]).arg(&dir).output().expect("run mdwh");
    assert!(!fsck.status.success());
    assert!(String::from_utf8_lossy(&fsck.stdout).contains("uncommitted tail"));

    // generate checkpointed: recover finds a base snapshot, nothing to
    // replay, cuts the torn tail, and commits a fresh checkpoint of the
    // same triples.
    let recovered = run(&["recover"]);
    assert!(recovered.contains("recovered: snapshot gen"), "{recovered}");
    assert!(recovered.contains("replayed 0 batch(es)"), "{recovered}");
    assert!(!recovered.contains("truncated 0 torn"), "{recovered}");
    assert!(recovered.contains("checkpointed"), "{recovered}");
    assert!(run(&["fsck"]).contains("clean"));
    // The reopened store answers as before.
    assert_eq!(run(&["info"]), before);

    // A directory that holds no store is an error, not an empty store.
    let missing = dir.join("nothing-here");
    let output = mdwh().args(["info", "--store"]).arg(&missing).output().expect("run mdwh");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no store in"));
    assert!(!missing.exists(), "a read must not create a store");
    let _ = std::fs::remove_dir_all(&dir);
}
