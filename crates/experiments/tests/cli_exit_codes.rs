//! The exit-code contract of the experiment binaries:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | run (and golden check, if any) succeeded |
//! | 1 | golden mismatch |
//! | 2 | bad command line |
//!
//! `table1` exercises the shared path for all twelve binaries — it is
//! the cheapest spec (no sweeps), and every binary goes through the same
//! `dva_experiments::cli` entry. `all` is run once, for the directory
//! mode of its output flags.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn table1() -> Command {
    Command::new(env!("CARGO_BIN_EXE_table1"))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/golden")
}

fn run(mut cmd: Command) -> Output {
    cmd.output().expect("binary spawns")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dva-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_exits_zero_and_names_every_flag() {
    let out = run({
        let mut c = table1();
        c.arg("--help");
        c
    });
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--quick",
        "--full",
        "--threads",
        "--json",
        "--csv",
        "--golden-check",
    ] {
        assert!(text.contains(flag), "help misses {flag}");
    }
}

#[test]
fn unknown_flags_exit_two() {
    for args in [
        &["--bogus"][..],
        &["--threads"],
        &["--threads", "zero"],
        &["--json"],
        &["--full", "--quick"],
        &["--quick", "--full"],
    ] {
        let out = run({
            let mut c = table1();
            c.args(args);
            c
        });
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "usage errors keep stdout clean");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "stderr shows usage for {args:?}");
    }
}

/// A flag that takes a value must not take the next flag: `--json
/// --golden-check` once wrote a file named `--golden-check`, skipped the
/// check and exited 0.
#[test]
fn a_value_flag_followed_by_a_flag_exits_two_and_writes_nothing() {
    let dir = temp_dir("flag-value");
    let out = run({
        let mut c = table1();
        c.args(["--quick", "--json", "--golden-check"])
            .current_dir(&dir)
            .env("GOLDEN_DIR", dir.join("missing"))
            .env_remove("GOLDEN_UPDATE");
        c
    });
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--json"), "the error names the flag: {err}");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `all` with `--json`/`--csv` treats each path as a directory and
/// writes one `<name>.json` and `<name>.csv` per spec it prints; with
/// `--golden-check` every artifact must match its checked-in golden.
#[test]
fn all_writes_one_artifact_pair_per_spec_and_matches_every_golden() {
    let dir = temp_dir("all");
    let (json_dir, csv_dir) = (dir.join("json"), dir.join("csv"));
    let out = run({
        let mut c = Command::new(env!("CARGO_BIN_EXE_all"));
        c.args(["--quick", "--json"])
            .arg(&json_dir)
            .arg("--csv")
            .arg(&csv_dir)
            .arg("--golden-check")
            .env("GOLDEN_DIR", golden_dir())
            .env_remove("GOLDEN_UPDATE");
        c
    });
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{err}");
    let names: Vec<&str> = dva_experiments::REGISTRY
        .iter()
        .filter(|spec| spec.all_header.is_some())
        .map(|spec| spec.name)
        .collect();
    let listing = |dir: &Path| {
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort_unstable();
        files
    };
    let expected = |ext: &str| {
        let mut files: Vec<String> = names.iter().map(|name| format!("{name}.{ext}")).collect();
        files.sort_unstable();
        files
    };
    assert_eq!(listing(&json_dir), expected("json"));
    assert_eq!(listing(&csv_dir), expected("csv"));
    for name in &names {
        let file = format!("{name}.json");
        assert_eq!(
            std::fs::read(json_dir.join(&file)).unwrap(),
            std::fs::read(golden_dir().join(&file)).unwrap(),
            "{file} differs from its golden"
        );
        let csv = std::fs::read_to_string(csv_dir.join(format!("{name}.csv"))).unwrap();
        assert!(
            csv.starts_with(&format!("# artifact {name} ")),
            "{name}.csv"
        );
        assert!(
            err.contains(&format!("golden-check: {name} matches")),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_and_csv_flags_write_artifacts() {
    let dir = temp_dir("outputs");
    let json = dir.join("table1.json");
    let csv = dir.join("table1.csv");
    let out = run({
        let mut c = table1();
        c.args(["--quick", "--json"])
            .arg(&json)
            .arg("--csv")
            .arg(&csv);
        c
    });
    assert_eq!(out.status.code(), Some(0));
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.starts_with("{\"experiment\":\"table1\""));
    assert!(json_text.ends_with("}\n"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("# artifact table1"));
    // stdout is unchanged by the output flags.
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .starts_with("Table 1:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One golden lifecycle: missing → exit 1; GOLDEN_UPDATE=1 → exit 0 and
/// writes; matching → exit 0; corrupted → exit 1 again.
#[test]
fn golden_check_exit_codes_follow_the_contract() {
    let dir = temp_dir("golden");
    let check = |update: bool| {
        let mut c = table1();
        c.args(["--quick", "--golden-check"])
            .env("GOLDEN_DIR", &dir);
        if update {
            c.env("GOLDEN_UPDATE", "1");
        }
        run(c)
    };

    // No golden yet: mismatch.
    let out = check(false);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr).unwrap().contains("FAILED"));

    // Regenerate, then the check passes.
    assert_eq!(check(true).status.code(), Some(0));
    let golden = dir.join("table1.json");
    assert!(golden.exists());
    let out = check(false);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stderr).unwrap().contains("matches"));

    // A corrupted golden fails the check again.
    std::fs::write(&golden, "{\"experiment\":\"table1\",\"tampered\":true}\n").unwrap();
    assert_eq!(check(false).status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stdout_is_byte_identical_with_and_without_golden_check() {
    let dir = temp_dir("stdout");
    let plain = run({
        let mut c = table1();
        c.arg("--quick");
        c
    });
    let checked = run({
        let mut c = table1();
        c.args(["--quick", "--golden-check"])
            .env("GOLDEN_DIR", &dir)
            .env("GOLDEN_UPDATE", "1");
        c
    });
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(checked.status.code(), Some(0));
    assert_eq!(plain.stdout, checked.stdout);
    // And that stdout matches the checked-in capture byte for byte.
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/golden/text/table1.quick.txt");
    assert_eq!(
        String::from_utf8(plain.stdout).unwrap(),
        std::fs::read_to_string(golden).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
