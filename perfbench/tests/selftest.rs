//! The benchmark's self-test: repeatability per seed, sensitivity to the
//! seed, output checks that catch a wrong answer, and agreement between
//! the metric names the program prints and those `BENCHMARK.json` lists.

use std::collections::BTreeSet;

use dss_perfbench::{report, run_workload, Budget, Outcome, Rounds, RunCfg, WORKLOADS};

fn cfg(seed: u64) -> RunCfg {
    RunCfg {
        seed,
        rounds: Rounds::Count(2),
        budget: Budget::Iters(300),
        trace: false,
        corrupt_get_every: 0,
    }
}

fn run(workload: &str, cfg: &RunCfg) -> Outcome {
    run_workload(workload, cfg).expect("known workload")
}

#[test]
fn same_seed_repeats_pmem_counts_and_op_sequence() {
    for w in ["kv-ycsb-a", "crash-recover"] {
        let (a, b) = (run(w, &cfg(7)), run(w, &cfg(7)));
        assert_eq!(a.pmem, b.pmem, "{w}: pmem counts");
        assert_eq!(a.digest, b.digest, "{w}: op sequence");
        assert_eq!((a.attempted, a.failed), (b.attempted, 0), "{w}");
    }
}

#[test]
fn another_seed_changes_pmem_counts_and_op_sequence() {
    for w in ["kv-ycsb-a", "crash-recover"] {
        let (a, b) = (run(w, &cfg(7)), run(w, &cfg(8)));
        assert_ne!(a.pmem, b.pmem, "{w}: pmem counts");
        assert_ne!(a.digest, b.digest, "{w}: op sequence");
    }
}

#[test]
fn a_wrong_get_answer_lowers_ok_ratio() {
    let clean = run("kv-ycsb-a", &cfg(7));
    let corrupted = run("kv-ycsb-a", &RunCfg { corrupt_get_every: 10, ..cfg(7) });
    assert_eq!(clean.ok_ratio(), 1.0);
    assert!(corrupted.failed > 0);
    assert!(corrupted.ok_ratio() < clean.ok_ratio());
}

#[test]
fn queue_pairs_outputs_check_out() {
    let out = run("queue-pairs", &RunCfg { budget: Budget::Iters(2_000), ..cfg(7) });
    // A QueueFull is retried, so every op succeeds.
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 2 * 2 * 2 * 2_000);
}

#[test]
fn every_workload_reports_every_metric() {
    for w in WORKLOADS {
        let untraced = report::end_to_end(&run(w, &cfg(3)), 1.0);
        assert!(
            untraced.iter().all(|m| m.value > 0.0),
            "{w}: an end-to-end metric reads 0: {untraced:?}"
        );
        let traced = run(w, &RunCfg { trace: true, ..cfg(3) });
        assert!(traced.tracer.spans.iter().any(|s| s.parent != u32::MAX), "{w}: no child spans");
        let names: Vec<_> = report::per_layer(&traced, 1.0).into_iter().map(|m| m.name).collect();
        assert_eq!(names, report::per_layer_names());
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> BTreeSet<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let set = |v: Vec<String>| v.into_iter().collect::<BTreeSet<_>>();
    assert_eq!(
        names_in(&json, "workloads"),
        set(WORKLOADS.iter().map(|w| w.to_string()).collect())
    );
    assert_eq!(names_in(&json, "end_to_end"), set(report::end_to_end_names()));
    assert_eq!(names_in(&json, "per_layer"), set(report::per_layer_names()));
}
