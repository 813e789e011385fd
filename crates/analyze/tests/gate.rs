//! Integration tests for the analyze gate: the seeded fixture tree must
//! trip every rule, the JSON report must be byte-stable against the
//! checked-in snapshot, the CLI must honour its exit-code contract, and
//! the workspace itself must scan clean under `--deny-all`.

use std::path::{Path, PathBuf};
use std::process::Command;

use netclust_analyze::{scan, Manifest, Report};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn scan_fixtures() -> Report {
    let root = fixtures_dir();
    let manifest = Manifest::load(&root.join("analyze.manifest")).expect("fixture manifest parses");
    scan(&root, &[], &manifest).expect("fixture scan succeeds")
}

fn run_bin(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_netclust-analyze"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn every_rule_fires_on_the_fixtures() {
    let report = scan_fixtures();
    let expected = [
        ("unsafe-safety-comment", 2),
        ("panic-free-hot-path", 4),
        ("hot-path-transitive", 1),
        ("cast-truncation", 4),
        ("determinism", 2),
        ("typed-errors", 2),
        ("atomic-ordering-audit", 2),
        ("wal-ordering", 2),
        ("failpoint-coverage", 4),
        ("manifest-stale-path", 1),
        ("allow-marker", 3),
    ];
    for (rule, count) in expected {
        assert_eq!(
            report.count(rule),
            count,
            "rule `{rule}` seeded-finding count drifted; fixture sources and \
             tests/snapshots/fixtures.json must move together"
        );
    }
    // The manifest-excluded file never reaches the report, and the
    // exclusion also keeps it out of the files-scanned denominator.
    assert!(
        report.findings.iter().all(|f| !f.path.contains("excluded")),
        "manifest-excluded file leaked into the report"
    );
    assert_eq!(report.files_scanned, 9);
    // tests/arm.rs is indexed for the graph (failpoint arming evidence)
    // and marker hygiene, but is not a contract-scanned file.
    assert_eq!(report.test_files_indexed, 1);
}

#[test]
fn fixture_report_matches_snapshot() {
    let report = scan_fixtures();
    let expected = include_str!("snapshots/fixtures.json");
    assert_eq!(
        report.to_json(),
        expected,
        "report drifted from tests/snapshots/fixtures.json; if the change is \
         intentional, regenerate with `netclust-analyze --json \
         ../snapshots/fixtures.json` from crates/analyze/tests/fixtures"
    );
}

#[test]
fn deny_all_fails_on_fixtures_and_writes_the_report() {
    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixtures-report.json");
    let out = run_bin(
        &fixtures_dir(),
        &[
            "--deny-all",
            "--json",
            json_path.to_str().expect("utf-8 tmp path"),
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings under --deny-all must exit 1"
    );
    let written = std::fs::read_to_string(&json_path).expect("--json wrote the report");
    assert_eq!(written, include_str!("snapshots/fixtures.json"));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("[cast-truncation]") && stdout.contains("[determinism]"),
        "human-readable findings should be printed: {stdout}"
    );
}

#[test]
fn sarif_report_is_written_and_byte_stable() {
    let a = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixtures-a.sarif");
    let b = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixtures-b.sarif");
    for p in [&a, &b] {
        let out = run_bin(
            &fixtures_dir(),
            &["--sarif", p.to_str().expect("utf-8 tmp path")],
        );
        assert_eq!(out.status.code(), Some(0));
    }
    let first = std::fs::read_to_string(&a).expect("--sarif wrote the report");
    let second = std::fs::read_to_string(&b).expect("--sarif wrote the report");
    assert_eq!(first, second, "SARIF output must be byte-stable");
    assert!(first.contains("\"version\": \"2.1.0\""));
    assert!(first.contains("\"ruleId\": \"wal-ordering\""));
    assert!(first.contains("\"uri\": \"src/persist_sim.rs\""));
}

#[test]
fn without_deny_all_findings_do_not_fail_the_run() {
    let out = run_bin(&fixtures_dir(), &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "findings without --deny-all exit 0"
    );
}

#[test]
fn usage_and_io_errors_have_distinct_exit_codes() {
    let out = run_bin(&fixtures_dir(), &["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
    let out = run_bin(&fixtures_dir(), &["--json"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--json without a path is a usage error"
    );
    let out = run_bin(&fixtures_dir(), &["no-such-path"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "missing scan path is an I/O error"
    );
}

#[test]
fn workspace_scans_clean_under_deny_all() {
    let out = run_bin(&repo_root(), &["--deny-all"]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must stay clean under --deny-all; findings:\n{stdout}"
    );
    assert!(
        stdout.contains("0 finding(s)"),
        "expected a clean summary line, got:\n{stdout}"
    );
}
