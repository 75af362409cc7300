//! In-memory spans around calls into each layer, written out as Chrome
//! trace-event JSON (opens in Perfetto) when the run ends.
//!
//! Spans nest: a span opened while another is open records it as its
//! parent, and every span carries the id of the job it belongs to. A
//! layer's self time is its spans' durations minus the part their
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The root span of every job; its duration is the traced job time.
pub const JOB: &str = "job";

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: usize,
}

/// The span recorder. While disabled, [`Tracer::span`] only runs its
/// closure, so the untraced half of a traced run pays nothing.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            enabled: false,
        }
    }

    /// Starts job `job`: its spans are recorded when `enabled`.
    pub fn start_job(&mut self, job: usize, enabled: bool) {
        self.job = job;
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Total duration of every span named `name`, set-up included.
    pub fn total(&self, name: &str) -> Duration {
        self.sum(name, |_| true)
    }

    /// Total duration of the spans named `name` inside measured jobs.
    pub fn job_total(&self, name: &str) -> Duration {
        let in_job = self.in_job();
        self.sum(name, |i| in_job[i])
    }

    fn sum(&self, name: &str, keep: impl Fn(usize) -> bool) -> Duration {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && keep(*i))
            .map(|(_, s)| s.end - s.start)
            .sum()
    }

    /// Whether each span lies under a [`JOB`] root (rather than set-up).
    fn in_job(&self) -> Vec<bool> {
        let mut root: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            // A parent always precedes its children.
            let r = span.parent.map_or(i, |p| root[p]);
            root.push(r);
        }
        root.iter().map(|&r| self.spans[r].name == JOB).collect()
    }

    /// Self time per span name, over the spans inside measured jobs.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let in_job = self.in_job();
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, (span, covered)) in self.spans.iter().zip(children).enumerate() {
            if in_job[i] {
                *out.entry(span.name).or_default() +=
                    (span.end - span.start).saturating_sub(covered);
            }
        }
        out
    }

    /// Prints the self-time table and returns the share of traced job
    /// time the layers' self times cover.
    pub fn print_self_times(&self) -> f64 {
        let times = self.self_times();
        let jobs = self.total(JOB).as_secs_f64();
        println!("{:<22} {:>12} {:>8}", "layer", "self ms", "share");
        let mut covered = 0.0;
        for (name, time) in &times {
            let secs = time.as_secs_f64();
            if *name != JOB {
                covered += secs;
            }
            println!(
                "{name:<22} {:>12.3} {:>7.1}%",
                secs * 1e3,
                100.0 * secs / jobs.max(f64::MIN_POSITIVE)
            );
        }
        let coverage = covered / jobs.max(f64::MIN_POSITIVE);
        println!("layers cover {:.1}% of traced job time", 100.0 * coverage);
        coverage
    }

    /// Writes every span as a Chrome trace-event "complete" event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"job\":{}}}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.job,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where a traced run writes its spans, relative to the checkout root.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".perfbench/traces").join(format!("{workload}-seed{seed}.json"))
}
