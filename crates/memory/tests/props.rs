//! Property-based tests of the memory system's timing rules.

use dva_isa::{Stride, VectorLength};
use dva_memory::{
    CacheAccess, Memory, MemoryModelKind, MemoryParams, ScalarCache, ScalarCacheParams,
};
use proptest::prelude::*;

fn arb_vl() -> impl Strategy<Value = VectorLength> {
    (1u32..=128).prop_map(|n| VectorLength::new(n).unwrap())
}

fn arb_stride() -> impl Strategy<Value = Stride> {
    (-32i64..=32).prop_map(Stride::new)
}

proptest! {
    /// Vector load timing always satisfies the paper's formulas: the bus
    /// is held VL cycles, the first element arrives after L, the vector
    /// completes after L + VL.
    #[test]
    fn vector_load_timing_formulas(latency in 1u64..=200, vl in arb_vl(), start in 0u64..10_000) {
        let mut mem = Memory::new(MemoryParams::with_latency(latency));
        let issue = mem.issue_vector_load(start, vl, None);
        prop_assert_eq!(issue.port_free_at, start + vl.cycles());
        prop_assert_eq!(issue.data_first_at, start + latency);
        prop_assert_eq!(issue.data_complete_at, start + latency + vl.cycles());
        prop_assert!(!mem.port_free(start));
        prop_assert!(mem.port_free(issue.port_free_at));
    }

    /// Stores hold the bus for VL cycles and never expose latency.
    #[test]
    fn store_timing_is_latency_free(latency in 1u64..=200, vl in arb_vl()) {
        let mut mem = Memory::new(MemoryParams::with_latency(latency));
        let free = mem.issue_vector_store(0, vl, None);
        prop_assert_eq!(free, vl.cycles());
        prop_assert_eq!(mem.traffic().vector_store_elems, u64::from(vl.get()));
    }

    /// Probe never lies: a probe's answer always matches the access that
    /// immediately follows it.
    #[test]
    fn probe_predicts_access(addrs in proptest::collection::vec(0u64..1 << 20, 1..64)) {
        let mut mem = Memory::new(MemoryParams::default());
        let mut now = 0;
        for addr in addrs {
            let predicted = mem.probe_scalar(addr);
            let issue = mem.scalar_load(now, addr);
            match predicted {
                CacheAccess::Hit => prop_assert_eq!(issue.data_complete_at, now + 1),
                CacheAccess::Miss => {
                    prop_assert_eq!(issue.data_complete_at, now + mem.params().latency)
                }
            }
            now = issue.port_free_at.max(now) + 1;
        }
    }

    /// The cache is deterministic and its hit+miss counts always equal
    /// the number of accesses — loads and stores tallied separately.
    #[test]
    fn cache_counts_are_conserved(
        addrs in proptest::collection::vec((0u64..1 << 16, any::<bool>()), 0..200),
    ) {
        let mut cache = ScalarCache::new(ScalarCacheParams::default());
        let mut loads = 0u64;
        for &(a, is_load) in &addrs {
            if is_load {
                let _ = cache.load(a);
                loads += 1;
            } else {
                let _ = cache.store(a);
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert_eq!(stats.load_hits + stats.load_misses, loads);
        prop_assert_eq!(stats.store_hits + stats.store_misses, addrs.len() as u64 - loads);
        // Replaying the same stream through a fresh cache gives the same
        // stats.
        let mut cache2 = ScalarCache::new(ScalarCacheParams::default());
        for &(a, is_load) in &addrs {
            if is_load {
                let _ = cache2.load(a);
            } else {
                let _ = cache2.store(a);
            }
        }
        prop_assert_eq!(cache.stats(), cache2.stats());
    }

    /// Repeating an address immediately always hits.
    #[test]
    fn immediate_reuse_hits(addr in 0u64..1 << 40) {
        let mut cache = ScalarCache::new(ScalarCacheParams::default());
        let _ = cache.load(addr);
        prop_assert_eq!(cache.load(addr), CacheAccess::Hit);
    }

    /// Traffic accounting is additive over a sequence of operations.
    #[test]
    fn traffic_is_additive(ops in proptest::collection::vec((any::<bool>(), arb_vl()), 0..40)) {
        let mut mem = Memory::new(MemoryParams::with_latency(5));
        let mut now = 0u64;
        let (mut loads, mut stores) = (0u64, 0u64);
        for (is_load, vl) in ops {
            if is_load {
                let issue = mem.issue_vector_load(now, vl, None);
                now = issue.port_free_at;
                loads += u64::from(vl.get());
            } else {
                now = mem.issue_vector_store(now, vl, None);
                stores += u64::from(vl.get());
            }
        }
        prop_assert_eq!(mem.traffic().vector_load_elems, loads);
        prop_assert_eq!(mem.traffic().vector_store_elems, stores);
        prop_assert_eq!(mem.ports()[0].busy_cycles(), loads + stores);
    }

    /// A banked access is never faster than flat, exactly `slowdown`
    /// times slower on the bus, and degenerates to flat whenever the
    /// stride touches enough banks (slowdown 1).
    #[test]
    fn banked_never_beats_flat(
        latency in 1u64..=100,
        vl in arb_vl(),
        stride in arb_stride(),
        banks in 1u32..=32,
        bank_busy in 1u64..=32,
    ) {
        let params = MemoryParams::with_latency(latency);
        let mut flat = Memory::new(params);
        let kind = MemoryModelKind::Banked { banks, bank_busy };
        let mut banked = Memory::new(params.with_model(kind));
        let slowdown = kind.slowdown(Some(stride));
        let f = flat.issue_vector_load(0, vl, Some(stride));
        let b = banked.issue_vector_load(0, vl, Some(stride));
        prop_assert!(slowdown >= 1);
        prop_assert!(slowdown <= bank_busy);
        prop_assert_eq!(b.port_free_at, vl.cycles() * slowdown);
        prop_assert!(b.port_free_at >= f.port_free_at);
        prop_assert!(b.data_complete_at >= f.data_complete_at);
        prop_assert_eq!(b.data_first_at, f.data_first_at);
        if slowdown == 1 {
            prop_assert_eq!(b, f);
        }
    }

    /// A one-port multi-port memory is the flat memory, access for
    /// access.
    #[test]
    fn single_port_multiport_is_flat(
        latency in 1u64..=100,
        ops in proptest::collection::vec((any::<bool>(), arb_vl()), 1..20),
    ) {
        let params = MemoryParams::with_latency(latency)
            .with_model(MemoryModelKind::MultiPort { ports: 1 });
        let mut multi = Memory::new(params);
        let mut flat = Memory::new(MemoryParams::with_latency(latency));
        let mut now = 0u64;
        for (is_load, vl) in ops {
            if is_load {
                let a = multi.issue_vector_load(now, vl, None);
                let b = flat.issue_vector_load(now, vl, None);
                prop_assert_eq!(a, b);
                now = a.port_free_at;
            } else {
                let a = multi.issue_vector_store(now, vl, None);
                let b = flat.issue_vector_store(now, vl, None);
                prop_assert_eq!(a, b);
                now = a;
            }
            prop_assert_eq!(multi.next_free_at(0), flat.next_free_at(0));
            prop_assert_eq!(multi.quiesce_at(), flat.quiesce_at());
        }
        prop_assert_eq!(multi.traffic(), flat.traffic());
    }
}
