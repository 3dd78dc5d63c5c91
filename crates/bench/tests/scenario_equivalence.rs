//! Open-loop campaign equivalence: the scenario sweep's JSON output is
//! byte-identical across worker thread counts. (That a single run is
//! insensitive to the telemetry mode is pinned by the scenario crate's
//! `telemetry_env` test.)

use adaptnoc_bench::jsonrows::rows_json;
use adaptnoc_bench::prelude::*;

const SWEEP: &str = "grid 4 4; seed 4; warmup 1K; duration 4K; epoch 2K;\n\
                     region B 2 2 2 2;\n\
                     sweep load 0.05 to 0.2 step 0.05;\n\
                     t=0 uniform load sweep poisson;\n\
                     t=2K hotspot region B load 0.3 mmpp 3 0.05 0.2;";

#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let serial = scenario_sweep_par("eq", SWEEP, 1).unwrap();
    let baseline = rows_json(&serial).to_string_compact();
    for threads in [2, 4, 8] {
        let par = scenario_sweep_par("eq", SWEEP, threads).unwrap();
        assert_eq!(
            rows_json(&par).to_string_compact(),
            baseline,
            "{threads} threads must reproduce the serial bytes"
        );
    }
}
