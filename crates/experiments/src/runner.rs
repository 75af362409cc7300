//! The one execution path for every experiment.
//!
//! A [`Runner`] takes an [`ExperimentSpec`] and run options, executes the
//! spec's declared sweeps through a [`SweepService`] (so identical grid
//! points across specs — the shared REF/DVA/IDEAL latency sweep behind
//! Figures 3, 4 and 5, say — simulate **once** and hit the
//! content-addressed cache thereafter), checks the declared invariants,
//! and stamps the rendered sections into a versioned
//! [`Artifact`].

use crate::artifact::{Artifact, Section};
use crate::cli::RunOpts;
use crate::spec::{ExperimentSpec, SweepPlan};
use crate::table::Table;
use dva_engine::ENGINE_VERSION;
use dva_serve::{ResultCache, ServeError, SweepService, DEFAULT_MEMORY_CAPACITY};
use dva_sim_api::{AdaptiveReport, AdaptiveSweep, Sweep, SweepResults};
use std::fmt;

/// Executes [`ExperimentSpec`]s: one cache-backed sweep path, one
/// invariant checker, one artifact shape.
///
/// A `Runner` is cheap to create; share one across several specs (as the
/// `all` binary does) to reuse simulated points between them.
pub struct Runner {
    service: SweepService,
    /// Running totals across every sweep this runner executed.
    hits: usize,
    simulated: usize,
}

/// Why a run produced no artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A declared invariant does not hold on the measured results.
    InvariantViolated {
        /// The experiment that declared the invariant.
        experiment: String,
        /// The violation, with the offending grid coordinate.
        detail: String,
    },
    /// The sweep service failed one of the experiment's jobs.
    Refused {
        /// The experiment whose job failed.
        experiment: String,
        /// Why the service failed it (boxed: it carries a whole point
        /// error).
        error: Box<ServeError>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvariantViolated { experiment, detail } => {
                write!(f, "experiment `{experiment}`: invariant violated: {detail}")
            }
            RunError::Refused { experiment, error } => {
                write!(f, "experiment `{experiment}`: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// A runner over a fresh in-memory result cache.
    pub fn new() -> Runner {
        Runner {
            service: SweepService::new(ResultCache::in_memory(DEFAULT_MEMORY_CAPACITY)),
            hits: 0,
            simulated: 0,
        }
    }

    /// Executes one sweep through the service's content-addressed
    /// cache: byte-identical to `sweep.run()`.
    fn run_sweep(&mut self, sweep: &Sweep) -> Result<SweepResults, ServeError> {
        let (results, job) = self.service.run(sweep)?;
        self.hits += job.cache_hits;
        self.simulated += job.simulated;
        Ok(results)
    }

    /// Executes one adaptive session through the same cache (its keys
    /// are shared with dense jobs): every sampled point is byte-identical
    /// to the dense run's.
    fn run_adaptive(
        &mut self,
        adaptive: &AdaptiveSweep,
    ) -> Result<(SweepResults, AdaptiveReport), ServeError> {
        let (outcome, job) = self.service.run_adaptive_with(adaptive, |_, _| {})?;
        self.hits += job.cache_hits;
        self.simulated += job.simulated;
        Ok((outcome.results, outcome.report))
    }

    /// Runs a spec end to end: execute its sweep plans (cache-backed),
    /// check its invariants on every measured result set, render its
    /// sections, stamp the artifact. Each adaptive plan additionally
    /// appends an auto-generated "Adaptive sampling" section — the
    /// sampled / skipped / pruned accounting of the session — after the
    /// spec's own sections.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvariantViolated`] — and no artifact — if any
    /// declared invariant fails on any executed sweep, and
    /// [`RunError::Refused`] if the service fails a sweep (a faulting
    /// point or an interrupted job).
    pub fn run(&mut self, spec: &ExperimentSpec, opts: &RunOpts) -> Result<Artifact, RunError> {
        let plans = (spec.sweeps)(opts);
        let mut results = Vec::with_capacity(plans.len());
        let mut reports: Vec<AdaptiveReport> = Vec::new();
        let refused = |error| RunError::Refused {
            experiment: spec.name.to_string(),
            error: Box::new(error),
        };
        for plan in &plans {
            let measured = match plan {
                SweepPlan::Dense(sweep) => self.run_sweep(sweep).map_err(refused)?,
                SweepPlan::Adaptive(adaptive) => {
                    let (measured, report) = self.run_adaptive(adaptive).map_err(refused)?;
                    reports.push(report);
                    measured
                }
            };
            for invariant in spec.invariants {
                if let Some(detail) = invariant.check(&measured) {
                    return Err(RunError::InvariantViolated {
                        experiment: spec.name.to_string(),
                        detail,
                    });
                }
            }
            results.push(measured);
        }
        let mut sections = (spec.render)(opts, &results);
        for (i, report) in reports.iter().enumerate() {
            sections.push(adaptive_section(i, reports.len(), report));
        }
        Ok(Artifact {
            experiment: spec.name.to_string(),
            engine_version: ENGINE_VERSION,
            scale: opts.scale,
            full: opts.full,
            sections,
        })
    }

    /// Grid points answered from the cache so far (across all sweeps this
    /// runner executed).
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// Grid points actually simulated so far.
    pub fn simulated(&self) -> usize {
        self.simulated
    }
}

/// The auto-generated accounting section of one adaptive plan: per
/// machine label, how many curve points were sampled out of the dense
/// grid, and which curves were dominance-pruned (as `PROGRAM@rN`, the
/// round after which refinement stopped).
fn adaptive_section(index: usize, plans: usize, report: &AdaptiveReport) -> Section {
    let mut table = Table::new(["Machine", "Curves", "Sampled", "Dense", "Pruned"]);
    let mut labels: Vec<&str> = Vec::new();
    for curve in &report.curves {
        if !labels.contains(&curve.label.as_str()) {
            labels.push(&curve.label);
        }
    }
    for label in labels {
        let curves: Vec<_> = report.curves.iter().filter(|c| c.label == label).collect();
        let sampled: usize = curves.iter().map(|c| c.sampled).sum();
        let pruned: Vec<String> = curves
            .iter()
            .filter_map(|c| {
                c.pruned_round
                    .map(|round| format!("{}@r{round}", c.program))
            })
            .collect();
        table.row([
            label.to_string(),
            curves.len().to_string(),
            sampled.to_string(),
            (curves.len() * report.axis_len).to_string(),
            if pruned.is_empty() {
                "-".to_string()
            } else {
                pruned.join(", ")
            },
        ]);
    }
    table.row([
        "total".to_string(),
        report.curves.len().to_string(),
        report.sampled_points.to_string(),
        report.dense_points.to_string(),
        report.skipped_dominated.to_string(),
    ]);
    let key = if plans == 1 {
        "adaptive_sampling".to_string()
    } else {
        format!("adaptive_sampling_{index}")
    };
    let heading = format!(
        "Adaptive sampling: {} of {} dense points ({:.0}%), {} rounds, \
         {} interpolated + {} dominated skips",
        report.sampled_points,
        report.dense_points,
        100.0 * report.sampled_points as f64 / report.dense_points.max(1) as f64,
        report.rounds,
        report.skipped_interpolated,
        report.skipped_dominated,
    );
    Section::new(key, heading, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Section;
    use crate::spec::Invariant;
    use dva_sim_api::Machine;
    use dva_workloads::Benchmark;

    fn demo_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
        vec![Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .scale(opts.scale)
            .threads(opts.threads)
            .into()]
    }

    fn demo_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
        let mut table = Table::new(["L", "REF", "DVA"]);
        for latency in results[0].latencies() {
            table.row([
                latency.to_string(),
                results[0]
                    .cycles("REF", Benchmark::Trfd, latency)
                    .unwrap()
                    .to_string(),
                results[0]
                    .cycles("DVA", Benchmark::Trfd, latency)
                    .unwrap()
                    .to_string(),
            ]);
        }
        vec![Section::new("demo", "Demo", table)]
    }

    const DEMO: ExperimentSpec = ExperimentSpec {
        name: "demo",
        all_header: None,
        sweeps: demo_sweeps,
        render: demo_render,
        invariants: &Invariant::ideal_dva_ref(0.10),
    };

    #[test]
    fn runner_produces_a_stamped_artifact() {
        let mut runner = Runner::new();
        let artifact = runner.run(&DEMO, &RunOpts::quick()).unwrap();
        assert_eq!(artifact.experiment, "demo");
        assert_eq!(artifact.engine_version, ENGINE_VERSION);
        assert_eq!(artifact.sections.len(), 1);
        assert_eq!(artifact.sections[0].table.len(), 2);
        // First run simulated everything…
        assert_eq!(runner.simulated(), 6);
        assert_eq!(runner.cache_hits(), 0);
        // …and a re-run of the same spec is answered from the cache,
        // byte-identically.
        let again = runner.run(&DEMO, &RunOpts::quick()).unwrap();
        assert_eq!(again, artifact);
        assert_eq!(runner.simulated(), 6);
        assert_eq!(runner.cache_hits(), 6);
    }

    fn adaptive_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
        vec![AdaptiveSweep::over(
            Sweep::new()
                .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
                .benchmark(Benchmark::Trfd)
                .scale(opts.scale)
                .threads(opts.threads),
            1..=40,
        )
        .seeds(5)
        .prune_against("DVA", ["REF"])
        .into()]
    }

    fn adaptive_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
        let mut table = Table::new(["L", "DVA"]);
        for (latency, point) in
            results[0].curve("DVA", Benchmark::Trfd, dva_sim_api::MemoryModelKind::Flat)
        {
            table.row([latency.to_string(), point.result.cycles.to_string()]);
        }
        vec![Section::new("demo", "Demo", table)]
    }

    const ADAPTIVE_DEMO: ExperimentSpec = ExperimentSpec {
        name: "adaptive_demo",
        all_header: None,
        sweeps: adaptive_sweeps,
        render: adaptive_render,
        invariants: &Invariant::ideal_dva_ref(0.10),
    };

    #[test]
    fn adaptive_plans_append_a_sampling_section() {
        let mut runner = Runner::new();
        let artifact = runner.run(&ADAPTIVE_DEMO, &RunOpts::quick()).unwrap();
        assert_eq!(
            artifact.sections.len(),
            2,
            "render section + sampling section"
        );
        let sampling = &artifact.sections[1];
        assert_eq!(sampling.key, "adaptive_sampling");
        assert!(
            sampling.heading.starts_with("Adaptive sampling:"),
            "{}",
            sampling.heading
        );
        assert_eq!(
            sampling.table.headers(),
            ["Machine", "Curves", "Sampled", "Dense", "Pruned"]
        );
        // One row per label (REF, DVA, IDEAL) plus the total row.
        assert_eq!(sampling.table.len(), 4);
        let ref_row = &sampling.table.rows()[0];
        assert_eq!(ref_row[0], "REF");
        assert!(ref_row[4].contains("TRFD@r0"), "REF is pruned: {ref_row:?}");
        // Fewer points than dense, reported consistently with the runner.
        let total = &sampling.table.rows()[3];
        assert_eq!(total[3], (3 * 40).to_string());
        assert_eq!(total[2], runner.simulated().to_string());
        assert!(runner.simulated() < 3 * 40);
        // Invariants were checked on the sparse results and passed; a
        // cache-warm re-run is byte-identical.
        let again = runner.run(&ADAPTIVE_DEMO, &RunOpts::quick()).unwrap();
        assert_eq!(again, artifact);
    }

    /// The satellite-task acceptance test: a spec whose declared
    /// `IDEAL ≤ DVA ≤ REF` ordering is violated (here stated backwards)
    /// fails the run instead of producing an artifact.
    #[test]
    fn violated_invariant_fails_the_run() {
        const BROKEN: ExperimentSpec = ExperimentSpec {
            invariants: &[Invariant::CyclesOrdered {
                lower: "REF",
                upper: "IDEAL",
                tolerance: 0.0,
            }],
            ..DEMO
        };
        let err = Runner::new().run(&BROKEN, &RunOpts::quick()).unwrap_err();
        let RunError::InvariantViolated { experiment, detail } = &err else {
            panic!("{err}");
        };
        assert_eq!(experiment, "demo");
        assert!(detail.contains("violated"), "{detail}");
        assert!(err.to_string().contains("invariant violated"));
    }

    /// A sweep the service fails — here a point that panics — fails the
    /// run, and no artifact is produced from a partial grid. The only
    /// test in this crate that arms `sim.point`; its filter names a
    /// latency no other test measures.
    #[test]
    fn a_refused_sweep_fails_the_run() {
        use dva_serve::ServeError;
        use dva_sim_api::PointErrorKind;
        use dva_testutil::failpoint::{self, FailAction, Failpoint};
        fn faulting_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
            vec![Sweep::new()
                .machine(Machine::reference(1))
                .benchmark(Benchmark::Trfd)
                .latencies([7949])
                .scale(opts.scale)
                .into()]
        }
        const FAULTING: ExperimentSpec = ExperimentSpec {
            sweeps: faulting_sweeps,
            invariants: &[],
            ..DEMO
        };
        failpoint::arm(
            "sim.point",
            Failpoint::new(FailAction::Panic).filter("REF|TRFD|L7949"),
        );
        let mut runner = Runner::new();
        let outcome = runner.run(&FAULTING, &RunOpts::quick());
        failpoint::disarm("sim.point");
        let err = outcome.unwrap_err();
        let RunError::Refused { experiment, error } = &err else {
            panic!("{err}");
        };
        assert_eq!(experiment, "demo");
        let ServeError::Point(fault) = &**error else {
            panic!("{error}");
        };
        assert_eq!(fault.kind, PointErrorKind::Panic);
        assert_eq!(fault.latency, 7949);
        assert_eq!(runner.simulated(), 0, "a failed sweep adds nothing");
    }
}
