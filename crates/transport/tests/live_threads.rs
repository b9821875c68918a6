//! A live stack's thread count does not depend on its population: the NAT
//! emulator is its one thread, and the transport reads the nodes' sockets
//! on the caller's. This file holds a single test, so no other test's
//! threads share the process whose threads it counts.

use std::time::{Duration, Instant};

use nylon::NylonMsg;
use nylon_net::{NatClass, NatType, NetConfig};
use nylon_transport::{udp_over_emulated_nat, LiveClock};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task must be readable").count()
}

#[test]
fn a_live_stack_adds_one_thread_whatever_its_population() {
    let baseline = threads();
    for peers in [8, 256] {
        let mut classes = vec![NatClass::Public; peers / 2];
        classes.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); peers / 2]);
        let stack = udp_over_emulated_nat::<NylonMsg>(
            &classes,
            &NetConfig::default(),
            LiveClock::start_now(),
        )
        .expect("loopback sockets must bind");
        assert_eq!(threads(), baseline + 1, "a live stack of {peers} peers");
        drop(stack);
        // A joined thread may linger in the listing for a moment.
        let deadline = Instant::now() + Duration::from_secs(2);
        while threads() != baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(threads(), baseline, "dropping the stack of {peers} peers");
    }
}
