//! The shared `main` of every experiment binary: the command line, the
//! run, and the golden-check flow behind `--golden-check` /
//! `GOLDEN_UPDATE=1`.
//!
//! Each binary is a two-line wrapper that looks its spec up in the
//! experiment registry and hands it to [`run_spec`] (or the whole
//! registry to [`run_all`]). One parser serves every binary: the grid
//! options (`--quick`, `--full`, `--threads N`), the artifact outputs
//! (`--json <path>`, `--csv <path>`) and the CI gate
//! (`--golden-check`). Exit codes are part of the contract:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | run completed (and the golden check, if requested, matched) |
//! | 1 | golden mismatch, or a declared invariant failed |
//! | 2 | bad command line |

use crate::artifact::Artifact;
use crate::runner::Runner;
use crate::spec::ExperimentSpec;
use dva_json::ToJson;
use dva_sim_api::Sweep;
use dva_workloads::Scale;
use std::path::{Path, PathBuf};

/// Grid options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Trace size the workloads are generated at.
    pub scale: Scale,
    /// Whether to sweep the full latency grid.
    pub full: bool,
    /// Sweep worker threads (`0` = the machine's available parallelism).
    pub threads: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            scale: Scale::Default,
            full: false,
            threads: 0,
        }
    }
}

impl RunOpts {
    /// Quick single-threaded options for tests (and the golden quick
    /// grid).
    pub fn quick() -> RunOpts {
        RunOpts {
            scale: Scale::Quick,
            full: false,
            threads: 1,
        }
    }

    /// A [`Sweep`] session preconfigured with these options.
    pub fn sweep(&self) -> Sweep {
        Sweep::new().scale(self.scale).threads(self.threads)
    }
}

/// Where the run's artifact goes, beyond stdout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct OutputOpts {
    /// Write the artifact as canonical JSON to this path.
    json: Option<PathBuf>,
    /// Write the artifact as CSV to this path.
    csv: Option<PathBuf>,
    /// Compare the artifact byte-for-byte against its checked-in golden
    /// file (exit 1 on mismatch); with `GOLDEN_UPDATE=1`, rewrite the
    /// golden instead.
    golden_check: bool,
}

/// Everything the shared command line specifies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct CliArgs {
    /// The grid options.
    run: RunOpts,
    /// The artifact outputs.
    out: OutputOpts,
}

/// What [`try_parse`] understood from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Parsed {
    /// Normal run with these arguments.
    Args(CliArgs),
    /// `--help` / `-h`: print the usage text and exit successfully.
    Help,
}

/// The flags every experiment binary accepts.
fn usage() -> String {
    [
        "usage: [--quick | --full] [--threads N] [--json PATH] [--csv PATH]",
        "       [--golden-check] [--help]",
        "",
        "  --quick         small traces, the short latency grid",
        "  --full          full-scale traces, the full latency grid",
        "  --threads N     sweep worker threads (0 = all cores; default 0)",
        "  --json PATH     also write the result artifact as JSON to PATH",
        "  --csv PATH      also write the result artifact as CSV to PATH",
        "  --golden-check  byte-compare the artifact against artifacts/golden/",
        "                  (exit 1 on mismatch; GOLDEN_UPDATE=1 rewrites it,",
        "                  GOLDEN_DIR overrides the directory)",
        "  --help, -h      print this help and exit",
    ]
    .join("\n")
}

/// Parses the shared experiment flags from an argument iterator.
///
/// `--help` (or `-h`) anywhere wins. Unknown arguments are an error: the
/// caller prints the usage message and exits 2 rather than silently
/// measuring something other than what was asked for.
fn try_parse(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let args: Vec<String> = args.collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Parsed::Help);
    }
    let mut parsed = CliArgs::default();
    let mut quick = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => parsed.run.full = true,
            "--threads" => {
                let value = flag_value(&mut args, "--threads", "a value")?;
                parsed.run.threads = value
                    .parse()
                    .map_err(|_| format!("invalid thread count {value:?}"))?;
            }
            "--json" => parsed.out.json = Some(flag_value(&mut args, "--json", "a path")?.into()),
            "--csv" => parsed.out.csv = Some(flag_value(&mut args, "--csv", "a path")?.into()),
            "--golden-check" => parsed.out.golden_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.run.scale = match (quick, parsed.run.full) {
        (true, true) => return Err("--quick and --full exclude each other".to_string()),
        (true, false) => Scale::Quick,
        (false, true) => Scale::Full,
        (false, false) => Scale::Default,
    };
    Ok(Parsed::Args(parsed))
}

/// The argument after a flag that takes one. A missing value is a usage
/// error, and so is another flag in its place: `--json --golden-check`
/// must not write a file named `--golden-check` and skip the check.
fn flag_value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    match args.next() {
        Some(value) if !value.starts_with("--") => Ok(value),
        Some(next) => Err(format!("{flag} needs {what}, not the flag {next:?}")),
        None => Err(format!("{flag} needs {what}")),
    }
}

/// Parses the process arguments, printing help (exit 0) or a usage error
/// (exit 2) as required.
fn parse_cli() -> CliArgs {
    match try_parse(std::env::args().skip(1)) {
        Ok(Parsed::Args(args)) => args,
        Ok(Parsed::Help) => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

/// Runs one spec end to end: parse the command line, execute, print the
/// tables, write artifacts, check the golden. Never returns.
pub fn run_spec(spec: &ExperimentSpec) -> ! {
    let args = parse_cli();
    let artifact = run_or_exit(&mut Runner::new(), spec, &args.run);
    print!("{}", artifact.to_text());
    finish(&[artifact], &args.out);
}

/// Runs every spec of `specs` that the `all` binary prints (in order,
/// skipping `all_header: None`) under one shared runner, so a sweep
/// several specs declare simulates once. Never returns.
///
/// With `--json`/`--csv` the given path is a *directory*; one
/// `<name>.json`/`<name>.csv` is written per spec. `--golden-check`
/// checks every produced artifact and fails if any mismatches.
pub fn run_all(specs: &[ExperimentSpec]) -> ! {
    let args = parse_cli();
    let mut runner = Runner::new();
    let mut artifacts = Vec::new();
    for spec in specs {
        let Some(header) = spec.all_header else {
            continue;
        };
        let artifact = run_or_exit(&mut runner, spec, &args.run);
        print!("{header}\n\n{}\n", artifact.tables_text());
        artifacts.push(artifact);
    }
    finish(&artifacts, &args.out);
}

fn run_or_exit(runner: &mut Runner, spec: &ExperimentSpec, opts: &RunOpts) -> Artifact {
    runner.run(spec, opts).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(1);
    })
}

/// Writes the requested outputs and runs the golden check, then exits
/// with the appropriate status. For several artifacts the output paths
/// are directories (one file per artifact); for one they are files.
fn finish(artifacts: &[Artifact], out: &OutputOpts) -> ! {
    for artifact in artifacts {
        let per_artifact = if artifacts.len() == 1 {
            out.clone()
        } else {
            let file = |dir: &PathBuf, ext| dir.join(format!("{}.{ext}", artifact.experiment));
            OutputOpts {
                json: out.json.as_ref().map(|dir| file(dir, "json")),
                csv: out.csv.as_ref().map(|dir| file(dir, "csv")),
                golden_check: out.golden_check,
            }
        };
        if let Err(message) = write_outputs(artifact, &per_artifact) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
    if !out.golden_check {
        std::process::exit(0);
    }
    let dir = golden_dir();
    let mut failed = false;
    for artifact in artifacts {
        match golden_check(artifact, &dir) {
            GoldenStatus::Match => {
                eprintln!("golden-check: {} matches", artifact.experiment);
            }
            GoldenStatus::Updated => {
                eprintln!("golden-check: {} golden updated", artifact.experiment);
            }
            GoldenStatus::Mismatch { detail } => {
                eprintln!("golden-check: {} FAILED: {detail}", artifact.experiment);
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// The golden-artifact directory: `$GOLDEN_DIR`, or `artifacts/golden`
/// relative to the current directory.
fn golden_dir() -> PathBuf {
    std::env::var_os("GOLDEN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts/golden"))
}

/// The golden file an experiment's artifact is compared against.
fn golden_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}.json"))
}

/// The outcome of a golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GoldenStatus {
    /// The artifact matches the checked-in golden byte for byte.
    Match,
    /// The artifact differs from (or is missing) its golden.
    Mismatch {
        /// What went wrong, human-readable.
        detail: String,
    },
    /// `GOLDEN_UPDATE=1`: the golden file was rewritten.
    Updated,
}

/// The canonical serialized form of an artifact as stored on disk: the
/// compact JSON rendering plus a trailing newline.
fn golden_bytes(artifact: &Artifact) -> String {
    let mut text = artifact.render_json();
    text.push('\n');
    text
}

/// Compares `artifact` against its golden file under `dir` — or rewrites
/// the golden when `GOLDEN_UPDATE` is set in the environment.
fn golden_check(artifact: &Artifact, dir: &Path) -> GoldenStatus {
    let path = golden_path(dir, &artifact.experiment);
    let ours = golden_bytes(artifact);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        return match write_file(&path, &ours) {
            Ok(()) => GoldenStatus::Updated,
            Err(detail) => GoldenStatus::Mismatch { detail },
        };
    }
    match std::fs::read_to_string(&path) {
        Ok(theirs) if theirs == ours => GoldenStatus::Match,
        Ok(theirs) => GoldenStatus::Mismatch {
            detail: format!(
                "{} differs from the checked-in golden ({} vs {} bytes); \
                 rerun with GOLDEN_UPDATE=1 to regenerate",
                path.display(),
                ours.len(),
                theirs.len()
            ),
        },
        Err(e) => GoldenStatus::Mismatch {
            detail: format!(
                "cannot read {}: {e}; run with GOLDEN_UPDATE=1 to create it",
                path.display()
            ),
        },
    }
}

/// Writes the artifact's requested output files, creating their parent
/// directories (the `all` binary's directory mode points into
/// possibly-fresh trees). Returns an error message naming the path on
/// failure.
fn write_outputs(artifact: &Artifact, out: &OutputOpts) -> Result<(), String> {
    if let Some(path) = &out.json {
        write_file(path, &golden_bytes(artifact))?;
    }
    if let Some(path) = &out.csv {
        write_file(path, &artifact.to_csv())?;
    }
    Ok(())
}

/// Writes `contents` to `path`, creating its parent directories first; a
/// directory that cannot be created surfaces as the write's error.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Section;
    use crate::table::Table;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        try_parse(args.iter().map(|s| s.to_string()))
    }

    fn parse_ok(args: &[&str]) -> CliArgs {
        match parse(args) {
            Ok(Parsed::Args(a)) => a,
            other => panic!("expected args, got {other:?}"),
        }
    }

    #[test]
    fn grid_flags_parse_as_before() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "zero"]).is_err());
        let args = parse_ok(&["--quick", "--threads", "4"]);
        assert_eq!(args.run.scale, Scale::Quick);
        assert_eq!(args.run.threads, 4);
        let args = parse_ok(&["--full"]);
        assert!(args.run.full);
        assert_eq!(args.run.scale, Scale::Full);
        let args = parse_ok(&["--threads", "2"]);
        assert_eq!(
            args.run,
            RunOpts {
                threads: 2,
                ..RunOpts::default()
            }
        );
    }

    /// `--quick` and `--full` name two different grids; asking for both
    /// is a usage error in either order, not whichever came last.
    #[test]
    fn quick_and_full_exclude_each_other() {
        for args in [
            &["--full", "--quick"][..],
            &["--quick", "--full"],
            &["--quick", "--threads", "1", "--full"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--quick and --full"), "{args:?}: {err}");
        }
        assert_eq!(parse_ok(&["--quick", "--quick"]).run.scale, Scale::Quick);
        assert_eq!(parse_ok(&["--full", "--full"]).run.scale, Scale::Full);
    }

    #[test]
    fn output_flags_parse() {
        let args = parse_ok(&["--json", "out.json", "--csv", "out.csv", "--golden-check"]);
        assert_eq!(args.out.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(args.out.csv.as_deref(), Some(Path::new("out.csv")));
        assert!(args.out.golden_check);
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--csv"]).is_err());
    }

    /// A flag that takes a value never swallows the next flag as its
    /// value.
    #[test]
    fn a_value_flag_does_not_take_the_next_flag() {
        for (args, flag) in [
            (&["--json", "--golden-check"][..], "--json"),
            (&["--csv", "--quick"], "--csv"),
            (&["--threads", "--full"], "--threads"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
            assert!(err.contains(&format!("{:?}", args[1])), "{args:?}: {err}");
        }
        let args = parse_ok(&["--json", "-out.json"]);
        assert_eq!(args.out.json.as_deref(), Some(Path::new("-out.json")));
    }

    #[test]
    fn help_wins_anywhere_and_names_every_flag() {
        assert_eq!(parse(&["--help"]), Ok(Parsed::Help));
        assert_eq!(parse(&["-h"]), Ok(Parsed::Help));
        assert_eq!(parse(&["--quick", "--help"]), Ok(Parsed::Help));
        assert_eq!(parse(&["--threads", "--help"]), Ok(Parsed::Help));
        assert_eq!(parse(&["--json", "-h"]), Ok(Parsed::Help));
        assert_eq!(parse(&["--bogus", "-h"]), Ok(Parsed::Help));
        for flag in [
            "--quick",
            "--full",
            "--threads",
            "--json",
            "--csv",
            "--golden-check",
            "--help",
        ] {
            assert!(usage().contains(flag), "usage misses {flag}");
        }
    }

    fn demo_artifact() -> Artifact {
        Artifact {
            experiment: "demo-golden".to_string(),
            engine_version: 1,
            scale: Scale::Quick,
            full: false,
            sections: vec![Section::new("k", "h", one_cell("1"))],
        }
    }

    fn one_cell(cell: &str) -> Table {
        let mut table = Table::new(["a"]);
        table.row([cell]);
        table
    }

    #[test]
    fn golden_check_matches_mismatches_and_reports_missing() {
        let dir = std::env::temp_dir().join(format!("dva-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = demo_artifact();

        // Missing golden: mismatch naming the file.
        let missing = golden_check(&artifact, &dir);
        assert!(
            matches!(&missing, GoldenStatus::Mismatch { detail } if detail.contains("demo-golden.json"))
        );

        // Write the golden by hand; now it matches.
        std::fs::write(golden_path(&dir, "demo-golden"), golden_bytes(&artifact)).unwrap();
        assert_eq!(golden_check(&artifact, &dir), GoldenStatus::Match);

        // A changed artifact mismatches.
        let mut changed = artifact.clone();
        changed.sections[0].table = one_cell("2");
        assert!(matches!(
            golden_check(&changed, &dir),
            GoldenStatus::Mismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_outputs_emits_both_forms() {
        let dir = std::env::temp_dir().join(format!("dva-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = demo_artifact();
        let out = OutputOpts {
            json: Some(dir.join("a.json")),
            csv: Some(dir.join("a.csv")),
            golden_check: false,
        };
        write_outputs(&artifact, &out).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("a.json")).unwrap(),
            golden_bytes(&artifact)
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("a.csv")).unwrap(),
            artifact.to_csv()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
