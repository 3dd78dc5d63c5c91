//! The `adapt_rl` workload re-implements `bench::harness::run_design`
//! call for call so that it can time each call. This pins the two
//! together: if the harness loop changes, the mirror must follow or the
//! benchmark stops standing for the harness.

use adaptnoc_bench::harness::{fixed_policies, run_design, RunConfig};
use adaptnoc_benchmark::trace::Tracer;
use adaptnoc_benchmark::workloads::adapt_rl::{learning_policies, Mirror};
use adaptnoc_benchmark::workloads::paper_profiles;
use adaptnoc_core::prelude::*;
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;

fn chip() -> (ChipLayout, Vec<AppProfile>) {
    (ChipLayout::paper_mixed(), paper_profiles())
}

fn three_epochs() -> RunConfig {
    RunConfig {
        epoch_cycles: 2_500,
        epochs: 2,
        warmup_epochs: 1,
        seed: 7,
        run_to_completion: false,
        max_cycles: u64::MAX,
    }
}

fn policies(kind: DesignKind, learning: bool, regions: usize) -> Vec<TopologyPolicy> {
    match (kind.is_adaptive(), learning) {
        (false, _) => vec![],
        (true, true) => learning_policies(regions),
        (true, false) => {
            fixed_policies(&[TopologyKind::Cmesh, TopologyKind::Tree, TopologyKind::Torus])
        }
    }
}

#[test]
fn mirror_returns_what_the_harness_returns() {
    let (layout, profiles) = chip();
    let rc = three_epochs();
    for (kind, learning, traced) in [
        (DesignKind::AdaptNoc, true, false),
        (DesignKind::AdaptNoc, true, true),
        (DesignKind::AdaptNocNoRl, false, false),
        (DesignKind::Baseline, false, false),
    ] {
        let n = layout.regions.len();
        let want = run_design(kind, &layout, &profiles, policies(kind, learning, n), &rc)
            .expect("harness run");
        let mut tr = Tracer::new(traced);
        let mut m = Mirror::build(
            kind,
            &layout,
            &profiles,
            policies(kind, learning, n),
            &rc,
            &mut tr,
        )
        .expect("mirror build");
        m.run_epochs(rc.warmup_epochs + rc.epochs, &mut tr)
            .expect("mirror run");
        assert_eq!(
            m.result(),
            want,
            "{kind} (learning {learning}, traced {traced})"
        );
        assert!(want.network_latency > 0.0, "{kind} measured nothing");
    }
}
