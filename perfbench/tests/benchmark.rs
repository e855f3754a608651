//! The benchmark's own checks: generated inputs are a function of the
//! seed, printed metric names match `BENCHMARK.json`, a minimal-length run
//! of every workload passes its output checks and repeats its simulated
//! outputs exactly, and `bench-diff` gives the expected verdicts.

use dimmerd::json::{self, Json};
use perfbench::catalogue::{END_TO_END, PER_LAYER};
use perfbench::diff::{compare, parse_bounds, parse_run, Bound, Run, Verdict};
use perfbench::{city, daemon, testbed, Args, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
fn listed(list: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect(list)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn minimal(workload: Workload, seed: u64, trace: bool) -> perfbench::RunReport {
    perfbench::execute(&Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
    })
    .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

fn printed_names(report: &perfbench::RunReport) -> Vec<(String, String)> {
    report
        .outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.to_string()))
        .collect()
}

#[test]
fn a_seed_yields_identical_generated_inputs() {
    let cells = |seed| -> Vec<(&'static str, u64)> {
        testbed::Testbed::setup(seed)
            .cells
            .iter()
            .map(|c| (c.label, c.seed))
            .collect()
    };
    assert_eq!(cells(7), cells(7));
    assert_ne!(cells(7), cells(8));

    let jobs = |seed| city::City::setup(seed, 2).jobs;
    assert_eq!(jobs(7), jobs(7));
    assert_ne!(jobs(7), jobs(8));

    assert_eq!(daemon::plan(7, 5.0), daemon::plan(7, 5.0));
    assert_ne!(daemon::plan(7, 5.0), daemon::plan(8, 5.0));
    let plan = daemon::plan(7, 5.0);
    for kind in [
        daemon::Kind::Repeat,
        daemon::Kind::Fresh,
        daemon::Kind::City,
        daemon::Kind::Stats,
    ] {
        assert!(
            plan.iter().any(|r| r.kind == kind),
            "{kind:?} missing from the mix"
        );
    }
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let bounds = parse_bounds(&benchmark_json().to_string()).unwrap();
    for (bound, def) in bounds.iter().zip(END_TO_END.iter()) {
        assert_eq!(bound.bound, def.bound, "{}", def.name);
    }
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
}

#[test]
fn minimal_runs_pass_their_checks_print_every_metric_and_repeat_exactly() {
    let expected: Vec<(String, String)> = listed("end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    for workload in Workload::ALL {
        let a = minimal(workload, 3, false);
        assert!(a.outcome.correct, "{}: {:?}", workload.name(), a.outcome);
        assert_eq!(a.outcome.failed, 0);
        assert!(a.outcome.attempted > 0);
        assert_eq!(printed_names(&a), expected, "{}", workload.name());
        for (name, value, _) in &a.outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        let b = minimal(workload, 3, false);
        assert_eq!(a.digest, b.digest, "{} outputs repeat", workload.name());
        for name in ["reliability", "radio_on_ms"] {
            let value = |r: &perfbench::RunReport| {
                r.outcome
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap()
                    .1
                    .to_bits()
            };
            assert_eq!(value(&a), value(&b), "{}: {name} repeats", workload.name());
        }
        let line = json::parse(&a.outcome.to_line()).unwrap();
        let keys: Vec<&str> = match &line {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn city_outputs_do_not_depend_on_the_thread_count() {
    let measure = |threads| {
        let setup = city::City::setup(4, threads);
        let m = city::run(
            &setup,
            std::time::Duration::ZERO,
            &mut perfbench::trace::Tracer::new(false),
        );
        assert_eq!(m.failed, 0, "{threads} threads");
        (m.digest, m.reliability.to_bits(), m.radio_on_ms.to_bits())
    };
    assert_eq!(measure(1), measure(3));
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let report = minimal(Workload::TestbedRounds, 5, true);
    assert!(report.outcome.correct, "{:?}", report.outcome);
    let expected: Vec<(String, String)> = listed("per_layer")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    assert_eq!(printed_names(&report), expected);
    assert!(!report.tracer.spans().is_empty());
}

fn run(workload: &str, seed: u64, value: f64) -> Run {
    Run {
        workload: workload.to_string(),
        seed,
        metrics: vec![("latency_p50_ms".to_string(), value)],
    }
}

fn runs(values: &[f64]) -> Vec<Run> {
    values
        .iter()
        .enumerate()
        .map(|(seed, v)| run("w", seed as u64, *v))
        .collect()
}

fn verdict(parent: &[f64], change: &[f64]) -> Verdict {
    let bound = Bound {
        name: "latency_p50_ms".to_string(),
        higher_is_better: false,
        bound: 0.1,
    };
    let rows = compare(&runs(parent), &runs(change), &[bound]);
    assert_eq!(rows.len(), 1);
    rows[0].verdict
}

#[test]
fn bench_diff_gives_the_expected_verdicts() {
    let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0];
    // Same numbers: nothing moved.
    assert_eq!(verdict(&parent, &parent), Verdict::NoRegression);
    // 20 % faster in every pair: a gain.
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    assert_eq!(verdict(&parent, &faster), Verdict::Gain);
    // Faster, but only nine pairs: too few to claim a gain.
    assert_eq!(verdict(&parent[..9], &faster[..9]), Verdict::NoRegression);
    // Faster in 8 of 10 pairs: below nine tenths.
    let mut mixed = faster.clone();
    mixed[0] = 11.0;
    mixed[1] = 11.0;
    assert_ne!(verdict(&parent, &mixed), Verdict::Gain);
    // 30 % slower: beyond the 10 % bound.
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
    assert_eq!(verdict(&parent, &slower), Verdict::Regressed);
    // 5 % slower: within the bound.
    let bit_slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
    assert_eq!(verdict(&parent, &bit_slower), Verdict::NoRegression);
    // A parent noisier than the bound cannot judge a 30 % slowdown...
    let noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0];
    let noisy_slower: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
    assert_eq!(verdict(&noisy, &noisy_slower), Verdict::Unresolved);
    // ...unless every change run beats every parent run.
    let all_better = [1.0; 10];
    assert_eq!(verdict(&noisy, &all_better), Verdict::Gain);
}

#[test]
fn bench_diff_reads_result_files_and_skips_traced_runs() {
    let untraced =
        r#"{"workload":"w","seed":3,"trace":false,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
    let run = parse_run(untraced).unwrap().unwrap();
    assert_eq!(run.seed, 3);
    assert_eq!(run.metrics, vec![("setup_s".to_string(), 0.5)]);
    let traced = r#"{"workload":"w","seed":3,"trace":true,"metrics":{}}"#;
    assert_eq!(parse_run(traced).unwrap(), None);
    assert!(parse_run("{}").is_err());
}
