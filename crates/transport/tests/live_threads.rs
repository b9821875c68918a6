//! A live stack starts no thread, whatever its population: the NAT
//! emulator is a step of the transport's send path, and the transport
//! reads the nodes' sockets on the caller's thread. This file holds a
//! single test, so no other test's threads share the process whose threads
//! it counts.

use nylon::NylonMsg;
use nylon_net::{NatClass, NatType, NetConfig};
use nylon_transport::{udp_over_emulated_nat, LiveClock};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task must be readable").count()
}

#[test]
fn a_live_stack_adds_no_thread_whatever_its_population() {
    let baseline = threads();
    for peers in [8, 256, 2048] {
        let mut classes = vec![NatClass::Public; peers / 2];
        classes.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); peers / 2]);
        let stack = udp_over_emulated_nat::<NylonMsg>(
            &classes,
            &NetConfig::default(),
            LiveClock::start_now(),
        )
        .expect("loopback sockets must bind");
        assert_eq!(threads(), baseline, "a live stack of {peers} peers");
        drop(stack);
    }
}
