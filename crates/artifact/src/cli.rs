//! The command line every experiment binary shares, and the golden-check
//! flow behind `--golden-check` / `GOLDEN_UPDATE=1`.
//!
//! One parser serves all twelve binaries: the grid options (`--quick`,
//! `--full`, `--threads N`) that existed before the artifact layer, plus
//! the artifact outputs (`--json <path>`, `--csv <path>`) and the CI
//! gate (`--golden-check`). Exit codes are part of the contract:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | run completed (and the golden check, if requested, matched) |
//! | 1 | golden mismatch, or a declared invariant failed |
//! | 2 | bad command line |

use crate::artifact::Artifact;
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
pub struct OutputOpts {
    /// Write the artifact as canonical JSON to this path.
    pub json: Option<PathBuf>,
    /// Write the artifact as CSV to this path.
    pub csv: Option<PathBuf>,
    /// Compare the artifact byte-for-byte against its checked-in golden
    /// file (exit 1 on mismatch); with `GOLDEN_UPDATE=1`, rewrite the
    /// golden instead.
    pub golden_check: bool,
}

/// Everything the shared command line specifies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliArgs {
    /// The grid options.
    pub run: RunOpts,
    /// The artifact outputs.
    pub out: OutputOpts,
}

/// What [`try_parse`] understood from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Normal run with these arguments.
    Args(CliArgs),
    /// `--help` / `-h`: print the usage text and exit successfully.
    Help,
}

/// The flags every experiment binary accepts.
pub fn usage() -> String {
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
pub fn try_parse(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let args: Vec<String> = args.collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Parsed::Help);
    }
    let mut parsed = CliArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.run.scale = Scale::Quick,
            "--full" => {
                parsed.run.scale = Scale::Full;
                parsed.run.full = true;
            }
            "--threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--threads needs a value".to_string())?;
                parsed.run.threads = value
                    .parse()
                    .map_err(|_| format!("invalid thread count {value:?}"))?;
            }
            "--json" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--json needs a path".to_string())?;
                parsed.out.json = Some(PathBuf::from(path));
            }
            "--csv" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--csv needs a path".to_string())?;
                parsed.out.csv = Some(PathBuf::from(path));
            }
            "--golden-check" => parsed.out.golden_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Parsed::Args(parsed))
}

/// Parses the process arguments, printing help (exit 0) or a usage error
/// (exit 2) as required.
pub fn parse_cli() -> CliArgs {
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

/// The golden-artifact directory: `$GOLDEN_DIR`, or `artifacts/golden`
/// relative to the current directory.
pub fn golden_dir() -> PathBuf {
    std::env::var_os("GOLDEN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts/golden"))
}

/// The golden file an experiment's artifact is compared against.
pub fn golden_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}.json"))
}

/// The outcome of a golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
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
pub fn golden_bytes(artifact: &Artifact) -> String {
    let mut text = artifact.render_json();
    text.push('\n');
    text
}

/// Compares `artifact` against its golden file under `dir` — or rewrites
/// the golden when `GOLDEN_UPDATE` is set in the environment.
pub fn golden_check(artifact: &Artifact, dir: &Path) -> GoldenStatus {
    let path = golden_path(dir, &artifact.experiment);
    let ours = golden_bytes(artifact);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        return match std::fs::write(&path, &ours) {
            Ok(()) => GoldenStatus::Updated,
            Err(e) => GoldenStatus::Mismatch {
                detail: format!("cannot write {}: {e}", path.display()),
            },
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

/// Writes the artifact's requested output files. Returns an error
/// message naming the path on failure.
pub fn write_outputs(artifact: &Artifact, out: &OutputOpts) -> Result<(), String> {
    if let Some(path) = &out.json {
        std::fs::write(path, golden_bytes(artifact))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &out.csv {
        std::fs::write(path, artifact.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Section, TableData};

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
            sections: vec![Section {
                key: "k".to_string(),
                heading: "h".to_string(),
                table: TableData {
                    headers: vec!["a".to_string()],
                    rows: vec![vec!["1".to_string()]],
                },
            }],
        }
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
        changed.sections[0].table.rows[0][0] = "2".to_string();
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
