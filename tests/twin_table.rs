//! The twin table (`conformance::twin`, docs/testing.md "Twin table"):
//! every bit-identity contract's rows on one seeded op schedule per
//! case; a failure ends in `conformance replay: preset=twin seed=N`.

use conformance::{run_twin_conformance, Preset, Scenario};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_twin_row_holds(seed in 0u64..u64::MAX) {
        let sc = Scenario::from_seed(Preset::Twin, seed);
        if let Err(e) = run_twin_conformance(&sc) {
            prop_assert!(false, "{e}");
        }
    }
}

/// A replay line reproduces the seed's walk over the table.
#[test]
fn twin_replay_line_reproduces_the_row_walk() {
    let sc = Scenario::from_seed(Preset::Twin, 5);
    assert_eq!(sc.replay_line(), "conformance replay: preset=twin seed=5");
    let back = Scenario::from_replay_line(&sc.replay_line()).expect("round trip");
    assert_eq!((back.preset, back.seed), (Preset::Twin, 5));
    let compared = run_twin_conformance(&back).unwrap_or_else(|e| panic!("{e}"));
    assert!(compared > conformance::twin::rows().len());
}
