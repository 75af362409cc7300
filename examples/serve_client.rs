//! The sweep service end to end: start a `dva-serve` daemon on a Unix
//! socket, submit the paper's speedup-vs-latency experiment through the
//! typed [`Client`], print the table from the streamed points, then
//! submit the identical job again — the repeat is answered entirely from
//! the content-addressed result cache and simulates nothing.
//!
//! ```text
//! cargo run --release -p dva-examples --bin serve_client [PROGRAM]
//! ```

use dva_serve::{Client, ResultCache, SweepService, DEFAULT_MEMORY_CAPACITY};
use dva_sim_api::{Machine, Sweep};
use dva_workloads::{Benchmark, Scale};
use std::sync::Arc;

fn main() {
    let which = std::env::args()
        .nth(1)
        .and_then(|name| Benchmark::from_name(&name))
        .unwrap_or(Benchmark::Spec77);

    // A real deployment runs `dva-serve --socket PATH` as a separate
    // process; here the daemon lives on a thread so the example is
    // self-contained.
    let socket =
        std::env::temp_dir().join(format!("dva-serve-example-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let service = Arc::new(SweepService::new(ResultCache::in_memory(
        DEFAULT_MEMORY_CAPACITY,
    )));
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || dva_serve::serve_unix(service, &socket))
    };
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    let version = client.ping().expect("daemon answers ping");
    println!(
        "connected to dva-serve (engine v{version}) at {}",
        socket.display()
    );

    let latencies = [1, 20, 40, 60, 80, 100];
    let sweep = Sweep::new()
        .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
        .benchmark(which)
        .latencies(latencies)
        .scale(Scale::Quick)
        .threads(0); // 0 = one worker per available core

    let (results, summary) = client.submit(&sweep).expect("job streams to completion");
    println!(
        "first job: {} points ({} simulated, {} cache hits)\n",
        summary.total, summary.simulated, summary.cache_hits
    );

    let ideal = results.cycles("IDEAL", which, 1).expect("IDEAL in grid");
    println!("{}: IDEAL bound {ideal} cycles", which.name());
    println!("{:>4} {:>10} {:>10} {:>8}", "L", "REF", "DVA", "speedup");
    for latency in latencies {
        let r = &results.get("REF", which, latency).expect("grid").result;
        let d = &results.get("DVA", which, latency).expect("grid").result;
        println!(
            "{latency:>4} {:>10} {:>10} {:>7.2}x",
            r.cycles,
            d.cycles,
            d.speedup_over(r)
        );
    }

    // The identical job again: every point is a cache hit, and the
    // served results are byte-identical to the first run.
    let (again, summary) = client.submit(&sweep).expect("repeat job");
    assert_eq!(summary.simulated, 0, "repeat jobs simulate nothing");
    assert_eq!(summary.cache_hits, summary.total);
    assert_eq!(again, results, "cached results are byte-identical");
    println!(
        "\nrepeat job: {}/{} points from cache, 0 simulated, byte-identical",
        summary.cache_hits, summary.total
    );

    client.shutdown().expect("daemon acknowledges shutdown");
    server.join().expect("server thread").expect("clean exit");
}
