//! `primitives` — the paper's service primitives.
//!
//! * DDSS: the Figure 3a `put` sweep over every coherence model and size,
//!   each cell on a fresh 2-node `Ddss`, plus a matching `get` of the value
//!   just written (which must read back exactly).
//! * DLM: the six-design `LockClient` shootout over its three Zipf
//!   contention cells, through `ext_shootout::run_cell`.
//!
//! Dominated by one-sided writes and atomics (CAS/FAA) and by setup — the
//! eager 8 MiB DDSS heaps. Bypasses `sockets`, `coopcache`, `resmon` and
//! the shard driver.

use std::time::Instant;

use dc_bench::ext_shootout::{self, CellCfg, CellStats, CELLS};
use dc_bench::fig3a::{self, PutSeries, SIZES};
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_dlm::{DesignKind, DlmConfig};
use dc_fabric::{Cluster, FabricModel, NodeId};
use dc_sim::rng::splitmix64;
use dc_sim::time::as_us;
use dc_sim::Sim;

use crate::spans::span;
use crate::{Ctx, Meter};

/// Metric key of a lock design.
pub fn design_key(d: DesignKind) -> String {
    d.label().to_ascii_lowercase()
}

/// One pass: the DDSS sweep, then the lock shootout.
pub fn run(ctx: &Ctx, m: &mut Meter) {
    let series = span("ddss", || ddss_sweep(ctx, m));
    m.reports
        .push(super::report("fig3a_ddss_put", &[fig3a::table(&series)]));
    let tables = span("dlm", || shootout(ctx, m));
    m.reports.push(super::report("ext_lock_shootout", &tables));
}

/// Seeded payload bytes for one DDSS cell.
fn payload(seed: u64, model: Coherence, size: usize) -> Vec<u8> {
    let mut s = seed ^ ((model.to_u8() as u64) << 32) ^ size as u64;
    (0..size)
        .map(|_| {
            s = splitmix64(s);
            s as u8
        })
        .collect()
}

fn ddss_sweep(ctx: &Ctx, m: &mut Meter) -> Vec<PutSeries> {
    let mut series = Vec::new();
    for model in Coherence::FIG3A {
        let mut latency_us = Vec::new();
        span(format_args!("coherence.{}", model.label()), || {
            for &size in &SIZES {
                let (sim, cluster, _ddss, client) = m.setup("setup.ddss", || {
                    let sim = Sim::new();
                    let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
                    let ddss = Ddss::new(&cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]);
                    let client = ddss.client(NodeId(0));
                    (sim, cluster, ddss, client)
                });
                let data = payload(ctx.seed, model, size);
                let h = sim.handle();
                let (put_ns, get_ns, same) = span(format_args!("size.{size}"), || {
                    sim.run_to(async move {
                        let key = client
                            .allocate(NodeId(1), size, model)
                            .await
                            .expect("allocation failed");
                        // Warm once (metadata/agents settled), then measure,
                        // exactly as Figure 3a does; then the same for get.
                        client.put(&key, &data).await;
                        let t0 = h.now();
                        client.put(&key, &data).await;
                        let put_ns = h.now() - t0;
                        client.get(&key).await;
                        let t0 = h.now();
                        let got = client.get(&key).await;
                        let get_ns = h.now() - t0;
                        (put_ns, get_ns, got[..] == data[..])
                    })
                });
                super::add_verbs(m, &cluster);
                if !same {
                    m.problem(format!(
                        "ddss {model} {size} B: get did not return the put value"
                    ));
                }
                m.ops += 4;
                m.fold(&(model, size, put_ns, get_ns));
                latency_us.push(as_us(put_ns));
            }
        });
        series.push(PutSeries { model, latency_us });
    }
    series
}

fn shootout(ctx: &Ctx, m: &mut Meter) -> Vec<dc_core::Table> {
    let mut tables = Vec::new();
    // Per design: host ns inside its cell runs, and grants made.
    let mut cost = [(0u64, 0u64); DesignKind::ALL.len()];
    for committed in CELLS {
        let cell = CellCfg {
            seed: ctx.seed_for(committed.seed),
            ..committed
        };
        let stats: Vec<CellStats> = span(format_args!("cell.{}clients", cell.clients), || {
            DesignKind::ALL
                .into_iter()
                .enumerate()
                .map(|(di, design)| {
                    let key = design_key(design);
                    // The cell's setup, built and dropped unrun: cluster,
                    // lock manager and one client per member.
                    m.probe(format_args!("setup.{key}"), || {
                        let sim = Sim::new();
                        let nodes = cell.clients + 1;
                        let cluster =
                            Cluster::new(sim.handle(), FabricModel::calibrated_2007(), nodes);
                        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
                        let clients = design.build(
                            &cluster,
                            DlmConfig::default(),
                            NodeId(0),
                            cell.locks,
                            &members,
                        );
                        (clients, cluster, sim)
                    });
                    let t0 = Instant::now();
                    let s = span(format_args!("design.{key}"), || {
                        ext_shootout::run_cell(design, cell, None)
                    });
                    cost[di].0 += t0.elapsed().as_nanos() as u64;
                    cost[di].1 += s.acquires;
                    m.ops += s.acquires;
                    m.fold(&s);
                    s
                })
                .collect()
        });
        tables.push(ext_shootout::table(cell, &stats));
    }
    for (design, (ns, acquires)) in DesignKind::ALL.into_iter().zip(cost) {
        m.add(
            format!("dlm.{}.host_ns_per_acquire", design_key(design)),
            super::per(ns, acquires),
        );
    }
    tables
}
