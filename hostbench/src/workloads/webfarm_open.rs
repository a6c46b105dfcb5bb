//! `webfarm_open` — `ext_webfarm::full_cfg()`: 10^6 open-loop Poisson
//! clients over 450 nodes at 0.6×, 0.9× and 1.2× saturation, on the sharded
//! engine. Engine-bound: executor, timer wheel, shard barriers, arrivals,
//! Zipf and `StreamHist` do nearly all the work; `Cluster`, `svc`,
//! `sockets`, `ddss`, `dlm` and `coopcache` are never touched.

use std::time::Instant;

use dc_bench::ext_webfarm::full_cfg;
use dc_core::{run_webfarm_scale_stats, ScaleFarmCfg};
use dc_workloads::ArrivalKind;

use crate::spans::span;
use crate::{Ctx, Meter};

/// Offered load as multiples of the saturation estimate.
pub const LOADS: [f64; 3] = [0.6, 0.9, 1.2];

/// The farm at one load point (Poisson arrivals, one stream per client).
pub fn cfg(ctx: &Ctx, load_x: f64) -> ScaleFarmCfg {
    let base = full_cfg();
    ScaleFarmCfg {
        offered_rps: load_x * base.saturation_rps(),
        arrival: ArrivalKind::Poisson,
        gateways_per_proxy: 0,
        seed: ctx.seed_for(base.seed),
        shards: Some(ctx.shards),
        ..base
    }
}

/// One pass: a setup probe and a full run per load point.
pub fn run(ctx: &Ctx, m: &mut Meter) {
    let mut probe_ns = 0u64;
    for load_x in LOADS {
        let cfg = cfg(ctx, load_x);
        // The same farm with a 2 ns horizon: builds the whole population,
        // spawns the shards, and stops before the first arrival.
        let probe = ScaleFarmCfg {
            warmup_ns: 1,
            horizon_ns: 2,
            ..cfg.clone()
        };
        let t0 = Instant::now();
        m.probe(format_args!("setup.load_{load_x}"), || {
            run_webfarm_scale_stats(&probe)
        });
        probe_ns += t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let (p, st) = span(format_args!("load_{load_x}"), || {
            run_webfarm_scale_stats(&cfg)
        });
        let ns = t0.elapsed().as_nanos() as u64;

        if p.conservation_gap != 0 {
            m.problem(format!(
                "load {load_x}: conservation gap {} (issued {}, completed {}, shed {}, inflight {})",
                p.conservation_gap, p.issued, p.completed, p.shed, p.inflight
            ));
        }
        if st.shards != ctx.shards {
            m.problem(format!(
                "load {load_x}: ran {} shards, asked {}",
                st.shards, ctx.shards
            ));
        }
        // Requests resolved within the horizon; shed ones are the model's
        // admission control working, in-flight ones were cut by the horizon.
        m.ops += p.completed + p.shed;
        m.add("core.webfarm_scale.shed", p.shed as f64);
        m.add(
            format!("core.webfarm_scale.load_{load_x}.host_ns_per_request"),
            super::per(ns, p.issued),
        );
        m.add("sim.shard.barrier_waits", st.barrier_waits as f64);
        m.add("sim.shard.cross_sends", st.cross_sends as f64);
        m.fold(&p);
    }
    m.add("core.webfarm_scale.setup_s", probe_ns as f64 / 1e9);
}
