//! The four workloads: one per layer of the paper's framework plus one for
//! the engine. Every cell runs on the measuring thread; only the sharded
//! engine of `webfarm_open` starts threads of its own.

pub mod primitives;
pub mod rpc_incast;
pub mod services_farm;
pub mod webfarm_open;

use crate::host::Reference;
use crate::{Ctx, Meter};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10^6 open-loop clients on the sharded engine (engine-bound).
    WebfarmOpen,
    /// Incast fan-in over eRPC, SDP and AZ-SDP (transport-bound).
    RpcIncast,
    /// DDSS put/get sweep and the DLM shootout (service primitives).
    Primitives,
    /// Cooperative caching and monitored hosting (advanced services).
    ServicesFarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WebfarmOpen,
        Workload::RpcIncast,
        Workload::Primitives,
        Workload::ServicesFarm,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebfarmOpen => "webfarm_open",
            Workload::RpcIncast => "rpc_incast",
            Workload::Primitives => "primitives",
            Workload::ServicesFarm => "services_farm",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one pass's cells, recording into `m`.
    pub fn run(self, ctx: &Ctx, m: &mut Meter) {
        match self {
            Workload::WebfarmOpen => webfarm_open::run(ctx, m),
            Workload::RpcIncast => rpc_incast::run(ctx, m),
            Workload::Primitives => primitives::run(ctx, m),
            Workload::ServicesFarm => services_farm::run(ctx, m),
        }
    }

    /// The memory-speed reference an end-to-end pass is rescaled by: a
    /// table about the size of the pass's working set.
    pub fn reference(self) -> (usize, u64, f64) {
        match self {
            Workload::WebfarmOpen => Reference::LARGE,
            Workload::ServicesFarm => Reference::MEDIUM,
            _ => Reference::SMALL,
        }
    }

    /// Baselines (`baselines/<name>.json`) the default-seed pass must
    /// reproduce at 0% tolerance.
    pub fn baselines(self) -> &'static [&'static str] {
        match self {
            Workload::WebfarmOpen => &[],
            Workload::RpcIncast => &["ext_incast"],
            Workload::Primitives => &["fig3a_ddss_put", "ext_lock_shootout"],
            Workload::ServicesFarm => &["fig6_coopcache", "fig8b_monitor_throughput"],
        }
    }
}

/// Host ns per unit, 0 when there were no units.
pub fn per(ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

/// Add a cluster's verb counters to the `fabric.*` per-layer readings.
pub fn add_verbs(m: &mut Meter, cluster: &dc_fabric::Cluster) {
    let s = cluster.stats();
    m.add("fabric.reads", s.reads as f64);
    m.add("fabric.writes", s.writes as f64);
    m.add("fabric.cas", s.cas as f64);
    m.add("fabric.faa", s.faa as f64);
    m.add("fabric.sends", (s.sends_rdma + s.sends_tcp) as f64);
    m.add(
        "fabric.bytes_moved",
        (s.bytes_read + s.bytes_written) as f64,
    );
    m.add("fabric.retransmits", s.retransmits as f64);
    m.add("fabric.credit_stalls", s.credit_stalls as f64);
    m.max("fabric.qp_active", cluster.qp_active() as f64);
}

/// A fingerprinted report from rendered tables, in the registry's shape.
pub fn report(bench: &str, tables: &[dc_core::Table]) -> dc_trace::BenchReport {
    let mut r = dc_trace::BenchReport::new(bench);
    r.set_fingerprint(&dc_fabric::FabricModel::calibrated_2007().fingerprint());
    for t in tables {
        r.add_table(t.to_report());
    }
    r
}
