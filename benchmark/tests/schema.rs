//! `BENCHMARK.json` and `src/metrics.rs` declare the same benchmark:
//! every workload and metric the runner can emit is in the file, and
//! everything in the file can be emitted.

use adaptnoc_benchmark::bench::DEFAULT_SECONDS;
use adaptnoc_benchmark::metrics::{name_is_legal, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use adaptnoc_sim::json::{parse, Value};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is not an array"))
}

fn unit_is_legal(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn check_metrics(declared: &[Value], table: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = declared.iter().map(|m| text(m, "name")).collect();
    let want: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "metric lists differ (order included)");
    for (m, d) in declared.iter().zip(table) {
        let expected_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected_keys, "{}", d.name);
        assert!(name_is_legal(d.name), "{}", d.name);
        assert!(unit_is_legal(d.unit), "{}: unit `{}`", d.name, d.unit);
        assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(text(m, "better"), d.better.as_str(), "{}", d.name);
        if with_bound {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert_eq!(Some(bound), d.bound, "{}", d.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_runner_emits() {
    let c = contract();
    assert_eq!(
        keys(&c),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = array(&c, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, want);
    for (w, d) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(text(w, "why"), d.why);
        assert!(name_is_legal(d.name));
        assert!(d.why.len() <= 200 && !d.why.contains('\n'), "{}", d.name);
    }

    let e2e = array(&c, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    check_metrics(e2e, END_TO_END, true);
    let per_layer = array(&c, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    check_metrics(per_layer, PER_LAYER, false);

    // setup_s is mandatory, in seconds, lower-is-better, and has the
    // largest bound.
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}

#[test]
fn command_and_paths_stay_inside_the_benchmark_directory() {
    let c = contract();
    let paths: Vec<&str> = array(&c, "paths")
        .iter()
        .map(|p| p.as_str().expect("path"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = array(&c, "command")
        .iter()
        .map(|p| p.as_str().expect("argument"))
        .collect();
    assert!(command.len() <= 32);
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(
        command.contains(&"--release"),
        "measure optimised builds only"
    );
    for arg in &command {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let seconds = c
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert_eq!(
        seconds, DEFAULT_SECONDS,
        "the workload sizes are written for run_seconds"
    );
    assert!((1..=60).contains(&seconds));
}
