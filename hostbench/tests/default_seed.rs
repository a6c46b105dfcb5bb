//! The default seed reproduces the committed baselines, and every workload
//! counts the simulated events it is known to run. Run in release mode:
//! `cargo test --release --manifest-path hostbench/Cargo.toml`.

use hostbench::workloads::Workload;
use hostbench::{check, run_pass, Ctx, DEFAULT_SEED};

/// Ready-queue events plus timers fired by one default-seed pass. A change
/// to the simulated schedule moves these; re-pin them only together with
/// the baselines that change.
const EVENTS: [(Workload, u64); 4] = [
    (Workload::WebfarmOpen, 8_932_277),
    (Workload::RpcIncast, 2_303_500),
    (Workload::Primitives, 1_345_579),
    (Workload::ServicesFarm, 4_860_563),
];

fn default_pass_is_correct_and_pinned(w: Workload) {
    let ctx = Ctx {
        seed: DEFAULT_SEED,
        shards: hostbench::host::nproc().min(2),
    };
    let pass = run_pass(w, &ctx);
    let problems = check::problems(w, &ctx, &pass, None);
    assert!(problems.is_empty(), "{}: {problems:#?}", w.name());
    let pinned = EVENTS.iter().find(|(p, _)| *p == w).unwrap().1;
    assert_eq!(pass.sim_events(), pinned, "{}: simulated events", w.name());
    assert!(pass.meter.ops > 0, "{}: no ops", w.name());
}

#[test]
fn webfarm_open_default_seed() {
    default_pass_is_correct_and_pinned(Workload::WebfarmOpen);
}

#[test]
fn rpc_incast_default_seed() {
    default_pass_is_correct_and_pinned(Workload::RpcIncast);
}

#[test]
fn primitives_default_seed() {
    default_pass_is_correct_and_pinned(Workload::Primitives);
}

#[test]
fn services_farm_default_seed() {
    default_pass_is_correct_and_pinned(Workload::ServicesFarm);
}

#[test]
fn another_seed_changes_outputs_but_keeps_them_checkable() {
    for w in [Workload::RpcIncast, Workload::Primitives] {
        let ctx = Ctx {
            seed: hostbench::HELD_OUT_SEED,
            shards: 1,
        };
        let a = run_pass(w, &ctx);
        let b = run_pass(w, &ctx);
        assert!(
            check::problems(w, &ctx, &b, Some(&a)).is_empty(),
            "{}",
            w.name()
        );
        // On a clean fabric the eRPC sessions' jitter seed changes no
        // output, so only the lock shootout shows the seed.
        if w == Workload::Primitives {
            let default = run_pass(
                w,
                &Ctx {
                    seed: DEFAULT_SEED,
                    ..ctx
                },
            );
            assert_ne!(
                a.meter.digest, default.meter.digest,
                "seed must reach the cells"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let doc = dc_trace::json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    let field = |m: &dc_trace::json::JsonValue, k: &str| {
        m.get(k).and_then(|n| n.as_str()).unwrap().to_string()
    };
    let metrics = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    let mut declared = metrics("per_layer");
    declared.sort();
    let mut printed: Vec<(String, String)> = hostbench::per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    printed.sort();
    assert_eq!(declared, printed);
    let e2e: Vec<String> = metrics("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, ["wall_s", "setup_s", "peak_rss_mb"]);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
