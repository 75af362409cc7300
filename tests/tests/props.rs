//! Property-based tests: random kernels compiled through the real
//! toolchain must run to completion on both machines with all invariants
//! intact. This is the main deadlock-freedom workout for the decoupled
//! engine's queues.

use dva_core::{ideal_bound, DvaConfig};
use dva_sim_api::Machine;
use dva_tests::arb_program;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both machines terminate on any compiled kernel and account every
    /// cycle; the resource bound holds.
    #[test]
    fn machines_run_any_kernel(program in arb_program(), latency in 1u64..=100) {
        let r = Machine::reference(latency).simulate(&program);
        prop_assert_eq!(r.states.total_cycles(), r.cycles);
        let d = Machine::dva(latency).simulate(&program);
        prop_assert_eq!(d.states.total_cycles(), d.cycles);
        let bound = ideal_bound(&program).cycles();
        prop_assert!(bound <= r.cycles);
        prop_assert!(bound <= d.cycles);
    }

    /// The bypass never changes the total words the program requests and
    /// never slows down the full-queue configuration.
    #[test]
    fn bypass_is_safe_for_any_kernel(program in arb_program()) {
        let dva = Machine::dva(30).simulate(&program);
        let byp = Machine::byp(30, 256, 16).simulate(&program);
        prop_assert_eq!(
            dva.traffic.total_request_elems(),
            byp.traffic.total_request_elems()
        );
        // On full programs bypass is always a win (see tests/bypass.rs);
        // on arbitrary tiny kernels a bypass copy can occasionally cost a
        // few hundred cycles more than the drain it replaces (the copy
        // serializes behind the store's data where a drain can overlap
        // the reload's memory latency), so allow absolute slack.
        prop_assert!(byp.cycles <= dva.cycles + dva.cycles / 10 + 400);
    }

    /// Tiny queues still terminate (back-pressure, not deadlock).
    #[test]
    fn tiny_queues_do_not_deadlock(program in arb_program()) {
        let mut config = DvaConfig::byp(10, 1, 1);
        config.queues.instruction_queue = 2;
        config.queues.scalar_data_queue = 2;
        config.queues.scalar_store_queue = 2;
        let d = Machine::Dva(config).simulate(&program);
        prop_assert!(d.cycles > 0);
    }

    /// Vector traffic matches between the machines for any kernel.
    #[test]
    fn traffic_agrees_for_any_kernel(program in arb_program()) {
        let r = Machine::reference(5).simulate(&program);
        let d = Machine::dva(5).simulate(&program);
        prop_assert_eq!(r.traffic.vector_load_elems, d.traffic.vector_load_elems);
        prop_assert_eq!(r.traffic.vector_store_elems, d.traffic.vector_store_elems);
    }
}
