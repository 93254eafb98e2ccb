//! The name-based counter path (`Sim::add_count`, used per packet by the
//! fabrics) must not allocate once the counter exists. This is the only
//! test in its binary, so no concurrently running test can allocate while
//! the process-global allocation counter is armed.

use suca_sim::alloc::{counts, set_counting};
use suca_sim::Sim;

#[test]
fn adding_to_an_existing_counter_does_not_allocate() {
    let sim = Sim::new(1);
    // A counter appears only once it is first used.
    assert!(!sim
        .metrics()
        .counter_values()
        .contains_key("fabric.injected"));
    sim.add_count("fabric.injected", 1);
    assert!(sim
        .metrics()
        .counter_values()
        .contains_key("fabric.injected"));

    set_counting(true);
    // The counter is live: a real allocation registers.
    let (armed, _) = counts();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(counts().0 > armed, "allocation counting is not armed");
    let (before, _) = counts();
    for _ in 0..1_000 {
        sim.add_count("fabric.injected", 1);
    }
    let (after, _) = counts();
    set_counting(false);
    assert_eq!(after - before, 0, "existing-counter adds allocated");
    assert_eq!(sim.get_count("fabric.injected"), 1_001);
}
