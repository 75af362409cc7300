//! The store→load bypass on spill-heavy code (paper, Section 7): a loop
//! body with more live values than vector registers spills to stack
//! slots; the bypass serves the reloads straight from the store queue.
//!
//! ```text
//! cargo run --release -p dva-examples --bin bypass_study
//! ```

use dva_sim_api::{Machine, Sweep};
use dva_workloads::{Kernel, LoopSpec, Phase, ProgramSpec, StripOverhead};

fn main() {
    // Twelve arrays combined pairwise in reverse order: register pressure
    // far above the eight architectural registers, so the compiler spills.
    let mut k = Kernel::new("pressure12");
    let loads: Vec<_> = (0..12).map(|i| k.load(format!("a{i}"))).collect();
    let scaled: Vec<_> = loads.iter().map(|&l| k.mul_scalar(l)).collect();
    let mut acc = None;
    for (i, &m) in scaled.iter().enumerate() {
        let pair = k.add(m, loads[loads.len() - 1 - i]);
        acc = Some(match acc {
            None => pair,
            Some(a) => k.add(a, pair),
        });
    }
    k.store(acc.expect("nonempty"), "out");

    let spec = ProgramSpec {
        name: "bypass-study".into(),
        repeat: 1,
        phases: vec![Phase::Loop(LoopSpec {
            kernel: k,
            strips: 24,
            vl: 81,
            software_pipeline: false,
            overhead: StripOverhead::default(),
        })],
    };
    let program = spec.compile(7);
    let spill = dva_workloads::stats::spill_fraction(&program);
    println!(
        "workload: {} insts, {:.0}% of vector memory traffic is spill code\n",
        program.len(),
        100.0 * spill
    );

    // One sweep session: custom program × {DVA, BYP 4/8} × three
    // latencies, fanned out over worker threads.
    let results = Sweep::new()
        .machines([Machine::dva(1), Machine::byp(1, 4, 8)])
        .program(program)
        .latencies([1, 30, 100])
        .run();

    println!(
        "{:>4} {:>12} {:>12} {:>7} {:>10} {:>12}",
        "L", "DVA", "BYP 4/8", "gain", "bypassed", "traffic cut"
    );
    for latency in results.latencies() {
        let by_label = |label: &str| {
            &results
                .named(label, "bypass-study", latency)
                .expect("grid point")
                .result
        };
        let (dva, byp) = (by_label("DVA"), by_label("BYP 4/8"));
        println!(
            "{latency:>4} {:>12} {:>12} {:>6.1}% {:>10} {:>11.1}%",
            dva.cycles,
            byp.cycles,
            100.0 * (dva.cycles as f64 / byp.cycles as f64 - 1.0),
            byp.decoupled().expect("BYP is decoupled").bypassed_loads,
            100.0 * (1.0 - byp.traffic.ratio_to(&dva.traffic)),
        );
    }
    println!("\nEvery bypassed load skips main memory entirely: the data is");
    println!("copied from the store queue while the memory port serves other");
    println!("requests — the paper's 'illusion of two memory ports'.");
}
