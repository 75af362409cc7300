//! The wire codec's contract, pinned from both sides.
//!
//! * **Bytes.** Point frames of every machine kind and memory model,
//!   the other responses, request lines, disk-tier lines and cache keys
//!   render to the literals below, which the tree-building codec that
//!   preceded the streaming one produced.
//! * **Values.** Generated points, responses and sweeps read back equal
//!   to what was written — also with every object's fields shuffled, an
//!   unknown field inserted and a later duplicate of every field
//!   appended (the first of duplicate keys wins, as it always has).
//! * **Splicing.** The daemon's `point` frames, which splice a result's
//!   stored bytes after the point's coordinates, equal the typed render
//!   of the same point whether it was simulated, a memory-tier hit or a
//!   hit promoted from a reopened disk tier.
//! * **Cost.** Rendering and parsing a point costs a handful of
//!   allocations and keying it none, counted on this thread, independent
//!   of the host.

use dva_core::{DvaDetail, IdealBound, MAX_QUEUE_CAPACITY};
use dva_isa::MAX_DELAY;
use dva_json::Json;
use dva_memory::{MAX_BANKS, MAX_BANK_BUSY, MAX_PORTS};
use dva_metrics::{CacheStats, Diag, Histogram, StateTracker, Traffic};
use dva_serve::proto::{Request, Response};
use dva_serve::{AdaptiveSummary, JobSummary, PointKey, ResultCache};
use dva_sim_api::{
    AdaptiveSweep, Machine, MachineDetail, MemoryModelKind, PointError, PointErrorKind, ResultCore,
    SimResult, Sweep, SweepPoint,
};
use dva_testutil::thread_allocation_count;
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;

/// Every machine kind under every memory model: TRFD at Quick scale and
/// latency 30, twelve points, machine-minor.
fn golden_sweep() -> Sweep {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
        ])
        .benchmark(Benchmark::Trfd)
        .latencies([30])
        .memory_models([
            MemoryModelKind::Flat,
            MemoryModelKind::Banked {
                banks: 8,
                bank_busy: 4,
            },
            MemoryModelKind::MultiPort { ports: 2 },
        ])
        .scale(Scale::Quick)
        .threads(1)
}

// The literals: frames 0–3 (REF, DVA, BYP, IDEAL under flat memory),
// frame 6 (BYP, banked) and frame 9 (DVA, two ports) of the golden sweep,
// the cache keys of points 1 and 3, and the lines of the tests below.

const REF_FLAT: &str = r#"{"type":"point","index":0,"point":{"machine":{"kind":"ref","params":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}}}},"label":"REF","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"flat"},"result":{"core":{"cycles":10209,"insts":2372,"states":[5115,2666,364,612,148,784,342,178],"traffic":{"vector_load_elems":2728,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":0,"bypassed_loads":0},"bus_utilization":0.4153198158487609,"port_utilization":[0.4153198158487609],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":7817,"ticks_executed":2908},"detail":{"kind":"reference"}}}}"#;

const DVA_FLAT: &str = r#"{"type":"point","index":1,"point":{"machine":{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":256,"store_queue":16,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":false}},"label":"DVA","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"flat"},"result":{"core":{"cycles":7457,"insts":2372,"states":[2404,2561,185,855,538,458,90,366],"traffic":{"vector_load_elems":2728,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":0,"bypassed_loads":0},"bus_utilization":0.5685932680702696,"port_utilization":[0.5685932680702696],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":4820,"ticks_executed":3554},"detail":{"kind":"decoupled","avdq_occupancy":{"buckets":[2769,1435,1277,494,271,153,467,477,114,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"overflow":0},"bypassed_loads":0,"drain_stall_cycles":2171,"max_vpiq":16,"max_apiq":16,"max_avdq":8}}}}"#;

const BYP_FLAT: &str = r#"{"type":"point","index":2,"point":{"machine":{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":4,"store_queue":8,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":true}},"label":"BYP 4/8","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"flat"},"result":{"core":{"cycles":6364,"insts":2372,"states":[2093,1827,146,846,502,446,87,417],"traffic":{"vector_load_elems":2024,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":704,"bypassed_loads":32},"bus_utilization":0.5556253928346951,"port_utilization":[0.5556253928346951],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":3721,"ticks_executed":3495},"detail":{"kind":"decoupled","avdq_occupancy":{"buckets":[2019,275,492,920,2658],"overflow":0},"bypassed_loads":32,"drain_stall_cycles":450,"max_vpiq":16,"max_apiq":16,"max_avdq":4}}}}"#;

const IDEAL_FLAT: &str = r#"{"type":"point","index":3,"point":{"machine":{"kind":"ideal"},"label":"IDEAL","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"flat"},"result":{"core":{"cycles":4240,"insts":2372,"states":[0,0,0,0,0,0,0,0],"traffic":{"vector_load_elems":0,"vector_store_elems":0,"scalar_load_words":0,"scalar_store_words":0,"bypassed_elems":0,"bypassed_loads":0},"bus_utilization":0.0,"port_utilization":[],"cache_hit_rate":0.0,"cache":{"load_hits":0,"load_misses":0,"store_hits":0,"store_misses":0},"stall_cycles":0,"ticks_executed":0},"detail":{"kind":"ideal","bound":{"fu2_only":1144,"either_fu":1804,"memory_port":4240,"scalar_processor":2056,"scalar_cache":442}}}}}"#;

const BYP_BANKED: &str = r#"{"type":"point","index":6,"point":{"machine":{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"banked","banks":8,"bank_busy":4}},"queues":{"instruction_queue":16,"avdq":4,"store_queue":8,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":true}},"label":"BYP 4/8","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"banked","banks":8,"bank_busy":4},"result":{"core":{"cycles":6364,"insts":2372,"states":[2093,1827,146,846,502,446,87,417],"traffic":{"vector_load_elems":2024,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":704,"bypassed_loads":32},"bus_utilization":0.5556253928346951,"port_utilization":[0.5556253928346951],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":3721,"ticks_executed":3495},"detail":{"kind":"decoupled","avdq_occupancy":{"buckets":[2019,275,492,920,2658],"overflow":0},"bypassed_loads":32,"drain_stall_cycles":450,"max_vpiq":16,"max_apiq":16,"max_avdq":4}}}}"#;

const DVA_MULTIPORT: &str = r#"{"type":"point","index":9,"point":{"machine":{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"multiport","ports":2}},"queues":{"instruction_queue":16,"avdq":256,"store_queue":16,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":false}},"label":"DVA","benchmark":"TRFD","program":"TRFD","latency":30,"memory":{"kind":"multiport","ports":2},"result":{"core":{"cycles":6614,"insts":2372,"states":[2680,1506,265,711,632,300,289,231],"traffic":{"vector_load_elems":2728,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":0,"bypassed_loads":0},"bus_utilization":0.3205322044148775,"port_utilization":[0.4070154218324766,0.2340489869972785],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":3998,"ticks_executed":3458},"detail":{"kind":"decoupled","avdq_occupancy":{"buckets":[2113,1276,1213,105,89,165,554,235,715,106,41,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"overflow":0},"bypassed_loads":0,"drain_stall_cycles":2040,"max_vpiq":16,"max_apiq":16,"max_avdq":11}}}}"#;

const DVA_FLAT_KEY: &str = r#"v6;prog=9ecbf5be73bee8939342dd3988a9422b;ff=true;machine={"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":30,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":256,"store_queue":16,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":false}}"#;

const IDEAL_KEY: &str =
    r#"v6;prog=9ecbf5be73bee8939342dd3988a9422b;ff=true;machine={"kind":"ideal"}"#;

const POINT_ERROR: &str = r#"{"type":"point_error","index":5,"kind":"deadlock","label":"BYP 4/8","program":"TRFD","latency":30,"memory":{"kind":"banked","banks":8,"bank_busy":4},"message":"engine deadlock at cycle 12: \"stuck\"\n\tno progress"}"#;

const SUMMARY: &str = r#"{"type":"summary","total":12,"cache_hits":5,"simulated":6,"errors":1}"#;

const ADAPTIVE_SUMMARY: &str = r#"{"type":"adaptive_summary","dense":300,"sampled":90,"cache_hits":20,"simulated":70,"interpolated":150,"dominated":60,"pruned_curves":2,"rounds":4}"#;

const PONG: &str = r#"{"type":"pong","engine_version":6}"#;

const ERROR: &str = r#"{"type":"error","message":"bad \"thing\""}"#;

const BYE: &str = r#"{"type":"bye"}"#;

const SWEEP_REQUEST: &str = r#"{"type":"sweep","spec":{"machines":[{"kind":"ref","params":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":1,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}}}},{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":1,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":256,"store_queue":16,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":false}},{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":1,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":4,"store_queue":8,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":true}},{"kind":"ideal"}],"benchmarks":["TRFD"],"latencies":[30],"memory_models":[{"kind":"flat"},{"kind":"banked","banks":8,"bank_busy":4},{"kind":"multiport","ports":2}],"scale":"quick","threads":1,"fast_forward":true},"deadline_ms":2500}"#;

const ADAPTIVE_REQUEST: &str = r#"{"type":"adaptive","spec":{"sweep":{"machines":[{"kind":"ref","params":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":1,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}}}},{"kind":"dva","config":{"uarch":{"fu_startup":4,"qmov_startup":2,"check_bank_ports":true},"memory":{"latency":1,"cache":{"lines":512,"line_bytes":32},"model":{"kind":"flat"}},"queues":{"instruction_queue":16,"avdq":256,"store_queue":16,"scalar_store_queue":16,"scalar_data_queue":256},"bypass":false}}],"benchmarks":["TRFD"],"latencies":[],"memory_models":[],"scale":"quick","threads":0,"fast_forward":true},"axis":[1,2,3,4,5,6,7,8],"seeds":3,"tolerance":0.02,"baseline":"DVA","prune":["REF"],"margin":0.05}}"#;

const PING_REQUEST: &str = r#"{"type":"ping"}"#;

const JSONL_HEADER: &str = r#"{"engine_version":6}"#;

const JSONL_ENTRY: &str = r#"{"key":"v6;prog=9ecbf5be73bee8939342dd3988a9422b;ff=true;machine={\"kind\":\"dva\",\"config\":{\"uarch\":{\"fu_startup\":4,\"qmov_startup\":2,\"check_bank_ports\":true},\"memory\":{\"latency\":30,\"cache\":{\"lines\":512,\"line_bytes\":32},\"model\":{\"kind\":\"flat\"}},\"queues\":{\"instruction_queue\":16,\"avdq\":256,\"store_queue\":16,\"scalar_store_queue\":16,\"scalar_data_queue\":256},\"bypass\":false}}","result":{"core":{"cycles":7457,"insts":2372,"states":[2404,2561,185,855,538,458,90,366],"traffic":{"vector_load_elems":2728,"vector_store_elems":1276,"scalar_load_words":72,"scalar_store_words":164,"bypassed_elems":0,"bypassed_loads":0},"bus_utilization":0.5685932680702696,"port_utilization":[0.5685932680702696],"cache_hit_rate":0.7601809954751131,"cache":{"load_hits":206,"load_misses":72,"store_hits":130,"store_misses":34},"stall_cycles":4820,"ticks_executed":3554},"detail":{"kind":"decoupled","avdq_occupancy":{"buckets":[2769,1435,1277,494,271,153,467,477,114,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"overflow":0},"bypassed_loads":0,"drain_stall_cycles":2171,"max_vpiq":16,"max_apiq":16,"max_avdq":8}}}"#;

#[test]
fn point_frames_match_the_pinned_bytes() {
    let points = golden_sweep().run().points;
    for (index, golden) in [
        (0, REF_FLAT),
        (1, DVA_FLAT),
        (2, BYP_FLAT),
        (3, IDEAL_FLAT),
        (6, BYP_BANKED),
        (9, DVA_MULTIPORT),
    ] {
        let point = points[index].clone();
        let frame = Response::Point {
            index,
            point: Box::new(point.clone()),
        };
        assert_eq!(frame.render().unwrap(), golden, "frame {index}");
        assert_eq!(Response::parse(golden).unwrap(), frame, "frame {index}");
        // The tree forms read back from the writer's bytes agree.
        let tree = format!(
            r#"{{"type":"point","index":{index},"point":{}}}"#,
            point.to_json().unwrap().render()
        );
        assert_eq!(tree, golden, "frame {index}");
        assert_eq!(Json::parse(golden).unwrap().render(), golden);
    }
    assert_daemon_frames_match(&points);
    let kinds: Vec<_> = [0, 1, 2, 3, 6, 9]
        .iter()
        .map(|&i| (points[i].label.as_str(), points[i].memory))
        .collect();
    let banked = MemoryModelKind::Banked {
        banks: 8,
        bank_busy: 4,
    };
    let ported = MemoryModelKind::MultiPort { ports: 2 };
    assert_eq!(
        kinds,
        [
            ("REF", MemoryModelKind::Flat),
            ("DVA", MemoryModelKind::Flat),
            ("BYP 4/8", MemoryModelKind::Flat),
            ("IDEAL", MemoryModelKind::Flat),
            ("BYP 4/8", banked),
            ("DVA", ported),
        ]
    );
}

/// Serves the golden sweep through a disk-backed daemon three times —
/// cold, warm, then from a reopened disk tier — and checks that every
/// `point` frame equals the typed render of the same point.
fn assert_daemon_frames_match(points: &[SweepPoint]) {
    let dir = std::env::temp_dir().join(format!("dva-wire-splice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let request = Request::Sweep {
        spec: Box::new(golden_sweep()),
        deadline_ms: None,
    }
    .render()
    .unwrap();
    let expected: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(index, point)| {
            Response::Point {
                index,
                point: Box::new(point.clone()),
            }
            .render()
            .unwrap()
        })
        .collect();
    let serve = |service: &dva_serve::SweepService| {
        let mut output = Vec::new();
        dva_serve::serve_connection(service, std::io::Cursor::new(&request), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let (frames, summary) = lines.split_at(lines.len() - 1);
        match Response::parse(&summary[0]).unwrap() {
            Response::Summary(summary) => (frames.to_vec(), summary),
            other => panic!("expected a summary, got {other:?}"),
        }
    };
    let open = || dva_serve::SweepService::new(ResultCache::persistent(&dir, 64).unwrap());
    let service = open();
    let (cold, cost) = serve(&service);
    assert_eq!(cost.simulated, 12, "misses");
    let (warm, cost) = serve(&service);
    assert_eq!(cost.cache_hits, 12, "memory-tier hits");
    drop(service);
    let (promoted, cost) = serve(&open());
    assert_eq!(
        cost.cache_hits, 12,
        "hits promoted from the reopened disk tier"
    );
    for (case, frames) in [("miss", cold), ("memory hit", warm), ("disk hit", promoted)] {
        assert_eq!(frames, expected, "{case}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_keys_match_the_pinned_bytes() {
    let grid = golden_sweep().grid();
    assert_eq!(
        PointKey::of(&grid[1], true).unwrap().to_string(),
        DVA_FLAT_KEY
    );
    // IDEAL has no memory knob: one key under every memory model.
    for index in [3, 7, 11] {
        assert_eq!(
            PointKey::of(&grid[index], true).unwrap().to_string(),
            IDEAL_KEY
        );
    }
}

#[test]
fn other_responses_and_requests_match_the_pinned_bytes() {
    let responses = [
        (
            Response::PointError(PointError {
                index: 5,
                kind: PointErrorKind::Deadlock,
                label: "BYP 4/8".into(),
                program: "TRFD".into(),
                latency: 30,
                memory: MemoryModelKind::Banked {
                    banks: 8,
                    bank_busy: 4,
                },
                message: "engine deadlock at cycle 12: \"stuck\"\n\tno progress".into(),
            }),
            POINT_ERROR,
        ),
        (
            Response::Summary(JobSummary {
                total: 12,
                cache_hits: 5,
                simulated: 6,
                errors: 1,
            }),
            SUMMARY,
        ),
        (
            Response::AdaptiveSummary(AdaptiveSummary {
                dense: 300,
                sampled: 90,
                cache_hits: 20,
                simulated: 70,
                interpolated: 150,
                dominated: 60,
                pruned_curves: 2,
                rounds: 4,
            }),
            ADAPTIVE_SUMMARY,
        ),
        (Response::Pong { engine_version: 6 }, PONG),
        (
            Response::Error {
                message: "bad \"thing\"".into(),
            },
            ERROR,
        ),
        (Response::Bye, BYE),
    ];
    for (response, golden) in responses {
        assert_eq!(response.render().unwrap(), golden);
        assert_eq!(Response::parse(golden).unwrap(), response);
    }

    let adaptive = AdaptiveSweep::over(
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick),
        1..=8,
    )
    .seeds(3)
    .tolerance(0.02)
    .prune_against("DVA", ["REF"])
    .margin(0.05);
    let requests = [
        (
            Request::Sweep {
                spec: Box::new(golden_sweep()),
                deadline_ms: Some(2500),
            },
            SWEEP_REQUEST,
        ),
        (
            Request::Adaptive {
                spec: Box::new(adaptive),
                deadline_ms: None,
            },
            ADAPTIVE_REQUEST,
        ),
        (Request::Ping, PING_REQUEST),
    ];
    for (request, golden) in requests {
        assert_eq!(request.render().unwrap(), golden);
        assert_eq!(Request::parse(golden).unwrap().render().unwrap(), golden);
    }
}

#[test]
fn disk_tier_lines_match_the_pinned_bytes() {
    let sweep = golden_sweep();
    let (grid, points) = (sweep.grid(), sweep.run().points);
    let dir = std::env::temp_dir().join(format!("dva-wire-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = PointKey::of(&grid[1], true).unwrap();
    let mut cache = ResultCache::persistent(&dir, 4).unwrap();
    cache.store(key.clone(), points[1].result.clone());
    drop(cache);
    let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    assert_eq!(text, format!("{JSONL_HEADER}\n{JSONL_ENTRY}\n"));
    let mut reopened = ResultCache::persistent(&dir, 4).unwrap();
    assert_eq!(reopened.disk_len(), 1);
    assert_eq!(reopened.get(&key), Some(points[1].result.clone()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocation_count();
    let value = f();
    (thread_allocation_count() - before, value)
}

#[test]
fn a_point_renders_parses_and_keys_in_a_few_allocations() {
    let sweep = Sweep::new()
        .machines([
            Machine::reference(30),
            Machine::dva(30),
            Machine::byp(30, 4, 8),
            Machine::ideal(),
        ])
        .benchmark(Benchmark::Trfd)
        .scale(Scale::Default)
        .threads(1);
    let (grid, points) = (sweep.grid(), sweep.run().points);
    for (spec, point) in grid.iter().zip(points) {
        let label = point.label.clone();
        let frame = Response::Point {
            index: spec.index,
            point: Box::new(point),
        };
        // Warm up: the program computes its content hash on first use.
        let line = frame.render().unwrap();
        drop(Response::parse(&line).unwrap());
        PointKey::of(spec, true).unwrap();

        // One buffer, doubled at most once (a DVA frame is about 1.6 KB).
        let (render, rendered) = allocations(|| frame.render().unwrap());
        assert_eq!(rendered, line);
        assert!(render <= 2, "{label}: render made {render} allocations");
        // The box, label, program, port-utilization and histogram
        // vectors: nothing else.
        let (parse, parsed) = allocations(|| Response::parse(&line).unwrap());
        assert_eq!(parsed, frame);
        assert!(parse <= 6, "{label}: parse made {parse} allocations");
        // The key is plain data: nothing is formatted.
        let (key, _) = allocations(|| PointKey::of(spec, true).unwrap());
        assert_eq!(key, 0, "{label}: the key made {key} allocations");
    }
}

/// Builds values from a stream of random words, so that one vector
/// draw shapes a whole point.
struct Words(std::vec::IntoIter<u64>);

impl Words {
    fn next(&mut self) -> u64 {
        self.0.next().unwrap_or(7)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A count a JSON integer carries exactly.
    fn count(&mut self) -> u64 {
        self.next() >> 1
    }

    fn float(&mut self) -> f64 {
        Some(f64::from_bits(self.next()))
            .filter(|f| f.is_finite())
            .unwrap_or(0.25)
    }

    /// A memory kind inside the decode bounds.
    fn memory(&mut self) -> MemoryModelKind {
        match self.below(3) {
            0 => MemoryModelKind::Flat,
            1 => MemoryModelKind::Banked {
                banks: self.below(u64::from(MAX_BANKS)) as u32 + 1,
                bank_busy: self.below(MAX_BANK_BUSY) + 1,
            },
            _ => MemoryModelKind::MultiPort {
                ports: self.below(u64::from(MAX_PORTS)) as u32 + 1,
            },
        }
    }

    /// A queue capacity inside the decode bound.
    fn capacity(&mut self) -> usize {
        self.below(MAX_QUEUE_CAPACITY as u64) as usize + 1
    }

    fn machine(&mut self) -> Machine {
        let latency = self.below(1000);
        let memory = self.memory();
        match self.below(4) {
            0 => Machine::reference(latency).with_memory_model(memory),
            1 => Machine::dva(latency).with_memory_model(memory),
            2 => Machine::byp(latency, self.capacity(), self.capacity()).with_memory_model(memory),
            _ => Machine::ideal(),
        }
    }

    fn histogram(&mut self) -> Histogram {
        let buckets = (0..=self.below(300)).map(|_| self.below(1 << 20)).collect();
        Histogram::from_parts(buckets, self.count())
    }

    fn result(&mut self) -> SimResult {
        let core = ResultCore {
            cycles: self.count(),
            insts: self.count(),
            states: StateTracker::from_counts(std::array::from_fn(|_| self.count())),
            traffic: Traffic {
                vector_load_elems: self.count(),
                vector_store_elems: self.count(),
                scalar_load_words: self.count(),
                scalar_store_words: self.count(),
                bypassed_elems: self.count(),
                bypassed_loads: self.count(),
            },
            bus_utilization: self.float(),
            port_utilization: (0..self.below(4)).map(|_| self.float()).collect(),
            cache_hit_rate: self.float(),
            cache: CacheStats {
                load_hits: self.count(),
                load_misses: self.count(),
                store_hits: self.count(),
                store_misses: self.count(),
            },
            stall_cycles: self.count(),
            ticks_executed: Diag(self.count()),
        };
        let detail = match self.below(3) {
            0 => MachineDetail::Reference,
            1 => MachineDetail::Decoupled(DvaDetail {
                avdq_occupancy: self.histogram(),
                bypassed_loads: self.count(),
                drain_stall_cycles: self.count(),
                max_vpiq: self.count() as usize,
                max_apiq: self.count() as usize,
                max_avdq: self.count() as usize,
            }),
            _ => MachineDetail::Ideal(IdealBound {
                fu2_only: self.count(),
                either_fu: self.count(),
                memory_port: self.count(),
                scalar_processor: self.count(),
                scalar_cache: self.count(),
            }),
        };
        SimResult { core, detail }
    }

    fn point(&mut self, label: String, program: String) -> SweepPoint {
        let machine = self.machine();
        SweepPoint {
            machine,
            label,
            benchmark: match self.below(Benchmark::ALL.len() as u64 + 1) as usize {
                i if i < Benchmark::ALL.len() => Some(Benchmark::ALL[i]),
                _ => None,
            },
            program,
            latency: self.count(),
            memory: self.memory(),
            result: self.result(),
        }
    }

    fn sweep(&mut self) -> Sweep {
        let machines: Vec<_> = (0..self.below(5)).map(|_| self.machine()).collect();
        let benchmarks: Vec<_> = (0..self.below(4))
            .map(|_| Benchmark::ALL[self.below(Benchmark::ALL.len() as u64) as usize])
            .collect();
        let latencies: Vec<_> = (0..self.below(6))
            .map(|_| self.below(MAX_DELAY + 1))
            .collect();
        let models: Vec<_> = (0..self.below(3)).map(|_| self.memory()).collect();
        let scale = [Scale::Quick, Scale::Default, Scale::Full][self.below(3) as usize];
        Sweep::new()
            .machines(machines)
            .benchmarks(benchmarks)
            .latencies(latencies)
            .memory_models(models)
            .scale(scale)
            .threads(self.below(9) as usize)
            .fast_forward(self.below(2) == 0)
    }
}

/// Text mixing every byte class the writer escapes or copies.
fn text() -> impl Strategy<Value = String> {
    let chars = prop_oneof![
        Just('"'),
        Just('\\'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0xa0u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
    ];
    collection::vec(chars, 0..16).prop_map(|cs| cs.into_iter().collect())
}

/// `json` with every object's members shuffled by `seed`, an unknown
/// member inserted and a later duplicate of every member appended.
fn shuffled(json: &Json, seed: &mut u64) -> Json {
    let mut next = |n: usize| {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as usize % n
    };
    match json {
        Json::Object(fields) => {
            let picks: Vec<usize> = (0..=fields.len()).map(|i| next(i + 1)).collect();
            let mut out: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), shuffled(v, seed)))
                .collect();
            for i in (1..out.len()).rev() {
                out.swap(i, picks[i]);
            }
            let duplicates: Vec<_> = out
                .iter()
                .map(|(k, _)| (k.clone(), Json::Str("later duplicate".into())))
                .collect();
            let unknown = ("unknown".to_string(), Json::obj([("x", Json::Null)]));
            out.insert(picks[fields.len()].min(out.len()), unknown);
            out.extend(duplicates);
            Json::Object(out)
        }
        Json::Array(items) => Json::Array(items.iter().map(|v| shuffled(v, seed)).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn point_frames_round_trip_in_any_field_order(
        words in collection::vec(any::<u64>(), 700),
        label in text(),
        program in text(),
        index in 0usize..1 << 20,
        seed in any::<u64>(),
    ) {
        let point = Words(words.into_iter()).point(label, program);
        let frame = Response::Point { index, point: Box::new(point) };
        let line = frame.render().unwrap();
        prop_assert_eq!(Response::parse(&line).unwrap(), frame);
        prop_assert_eq!(Json::parse(&line).unwrap().render(), line);
        let reordered = shuffled(&Json::parse(&line).unwrap(), &mut { seed }).render();
        prop_assert_eq!(Response::parse(&reordered).unwrap(), frame);
    }

    #[test]
    fn other_responses_round_trip_in_any_field_order(
        words in collection::vec(any::<u64>(), 16),
        label in text(),
        message in text(),
        seed in any::<u64>(),
    ) {
        let mut w = Words(words.into_iter());
        let responses = [
            Response::PointError(PointError {
                index: w.count() as usize,
                kind: [PointErrorKind::Panic, PointErrorKind::Deadlock][w.below(2) as usize],
                label: label.clone(),
                program: message.clone(),
                latency: w.count(),
                memory: w.memory(),
                message: message.clone(),
            }),
            Response::Summary(JobSummary {
                total: w.count() as usize,
                cache_hits: w.count() as usize,
                simulated: w.count() as usize,
                errors: w.count() as usize,
            }),
            Response::Pong { engine_version: w.next() as u32 },
            Response::Error { message },
        ];
        for response in responses {
            let line = response.render().unwrap();
            prop_assert_eq!(Response::parse(&line).unwrap(), response);
            let reordered = shuffled(&Json::parse(&line).unwrap(), &mut { seed }).render();
            prop_assert_eq!(Response::parse(&reordered).unwrap(), response);
        }
    }

    #[test]
    fn sweep_requests_round_trip_in_any_field_order(
        words in collection::vec(any::<u64>(), 64),
        deadline in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut w = Words(words.into_iter());
        let sweep = w.sweep();
        let deadline_ms = deadline.is_multiple_of(3).then_some(deadline >> 1);
        let adaptive = AdaptiveSweep::over(sweep.clone(), (0..w.below(40)).map(|_| w.below(500)))
            .seeds(w.below(9) as usize)
            .tolerance(w.float().abs())
            .margin(w.float().abs());
        let adaptive = if w.below(2) == 0 { adaptive.prune_against("DVA", ["REF", "BYP 4/8"]) } else { adaptive };
        for request in [
            Request::Sweep { spec: Box::new(sweep), deadline_ms },
            Request::Adaptive { spec: Box::new(adaptive), deadline_ms },
        ] {
            let line = request.render().unwrap();
            prop_assert_eq!(Request::parse(&line).unwrap().render().unwrap(), line);
            let reordered = shuffled(&Json::parse(&line).unwrap(), &mut { seed }).render();
            prop_assert_eq!(Request::parse(&reordered).unwrap().render().unwrap(), line);
        }
    }
}
