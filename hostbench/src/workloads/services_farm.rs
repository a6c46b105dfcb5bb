//! `services_farm` — the paper's advanced services.
//!
//! * All 40 Figure 6 cooperative-cache cells: 5 schemes × 4 document sizes
//!   × {2, 8} proxies, through `run_webfarm`.
//! * All 20 Figure 8b hosting cells: the Socket-Async baseline and the four
//!   plotted monitoring schemes at each Zipf α, through `run_hosting`.
//!
//! Dominated by one-sided RDMA reads of 8–64 KiB documents and kernel-stat
//! regions plus LRU/directory work — reads, where `primitives` writes and
//! `rpc_incast` sends. Bypasses `ddss`, `dlm`, `sockets` lanes and the
//! shard driver.

use std::time::Instant;

use dc_bench::fig6::{self, TpsCell};
use dc_bench::fig8b::{self, ThroughputCell, ALPHAS};
use dc_coopcache::CacheScheme;
use dc_core::{run_hosting, run_webfarm, run_webfarm_traced, HostingCfg, WebFarmCfg};
use dc_resmon::MonitorScheme;
use dc_trace::TraceMode;

use crate::spans::span;
use crate::{Ctx, Meter};

/// Proxy counts of the two Figure 6 panels.
pub const PANELS: [usize; 2] = [2, 8];

/// Metric key of a cache scheme.
pub fn cache_key(s: CacheScheme) -> String {
    s.label().to_ascii_lowercase()
}

/// Metric key of a monitoring scheme.
pub fn monitor_key(s: MonitorScheme) -> String {
    s.label().to_ascii_lowercase()
}

/// The Figure 6 cells in `fig6::run_panel` order, seeded from `ctx`.
pub fn fig6_cells(ctx: &Ctx, proxies: usize) -> Vec<WebFarmCfg> {
    CacheScheme::ALL
        .iter()
        .flat_map(|&scheme| fig6::SIZES.iter().map(move |&size| (scheme, size)))
        .map(|(scheme, size)| {
            let cfg = fig6::cell_cfg(proxies, scheme, size);
            WebFarmCfg {
                seed: ctx.seed_for(cfg.seed),
                ..cfg
            }
        })
        .collect()
}

/// The Figure 8b cells in `fig8b::run` order, seeded from `ctx`: per α,
/// the Socket-Async baseline then the four plotted schemes.
pub fn fig8b_cells(ctx: &Ctx) -> Vec<HostingCfg> {
    let mut v = Vec::new();
    for &alpha in &ALPHAS {
        for scheme in std::iter::once(MonitorScheme::SocketAsync).chain(MonitorScheme::FIG8B) {
            let cfg = fig8b::cell_cfg(scheme, alpha);
            v.push(HostingCfg {
                seed: ctx.seed_for(cfg.seed),
                ..cfg
            });
        }
    }
    v
}

/// One pass: both Figure 6 panels, then Figure 8b.
pub fn run(ctx: &Ctx, m: &mut Meter) {
    let tables = span("coopcache", || {
        PANELS
            .iter()
            .map(|&proxies| {
                let cells = span(format_args!("panel.{proxies}"), || {
                    fig6_panel(ctx, m, proxies)
                });
                fig6::table(proxies, &cells)
            })
            .collect::<Vec<_>>()
    });
    m.reports.push(super::report("fig6_coopcache", &tables));
    let cells = span("resmon", || fig8b(ctx, m));
    m.reports.push(super::report(
        "fig8b_monitor_throughput",
        &[fig8b::table(&cells)],
    ));
    for scheme in CacheScheme::ALL {
        per_request(m, "coopcache", &cache_key(scheme));
    }
    for scheme in std::iter::once(MonitorScheme::SocketAsync).chain(MonitorScheme::FIG8B) {
        per_request(m, "resmon", &monitor_key(scheme));
    }
}

/// Turn a scheme's summed cell time and requests into host ns per request.
fn per_request(m: &mut Meter, layer: &str, key: &str) {
    let ns = m
        .layers
        .remove(&format!("{layer}.{key}.host_ns"))
        .unwrap_or(0.0);
    let n = m
        .layers
        .remove(&format!("{layer}.{key}.requests"))
        .unwrap_or(0.0);
    m.add(
        format!("{layer}.{key}.host_ns_per_request"),
        if n > 0.0 { ns / n } else { 0.0 },
    );
}

fn fig6_panel(ctx: &Ctx, m: &mut Meter, proxies: usize) -> Vec<TpsCell> {
    fig6_cells(ctx, proxies)
        .into_iter()
        .map(|cfg| {
            let key = cache_key(cfg.scheme);
            // The same cell with no requests: builds the cluster, backend,
            // cache tier and client tasks, which exit at once.
            let probe = WebFarmCfg {
                requests: 0,
                ..cfg.clone()
            };
            m.probe(format_args!("setup.{key}"), || run_webfarm(&probe));
            let t0 = Instant::now();
            let r = span(
                format_args!("scheme.{key}.{}k", cfg.doc_size / 1024),
                || run_webfarm(&cfg),
            );
            let ns = t0.elapsed().as_nanos() as u64;
            m.add(format!("coopcache.{key}.host_ns"), ns as f64);
            m.add(format!("coopcache.{key}.requests"), cfg.requests as f64);
            m.ops += cfg.requests as u64;
            m.fold(&(r.tps, r.mean_latency_ns, r.p99_latency_ns, r.span_ns));
            m.fold(&r.cache);
            TpsCell {
                scheme: cfg.scheme,
                size: cfg.doc_size,
                tps: r.tps,
                hit_rate: r.cache.hit_rate(),
            }
        })
        .collect()
}

fn fig8b(ctx: &Ctx, m: &mut Meter) -> Vec<ThroughputCell> {
    let per_alpha = 1 + MonitorScheme::FIG8B.len();
    let tps: Vec<f64> = fig8b_cells(ctx)
        .into_iter()
        .map(|cfg| {
            let key = monitor_key(cfg.scheme);
            let probe = HostingCfg {
                requests: 0,
                ..cfg.clone()
            };
            m.probe(format_args!("setup.{key}"), || run_hosting(&probe));
            let t0 = Instant::now();
            let r = span(format_args!("scheme.{key}.a{}", cfg.zipf_alpha), || {
                run_hosting(&cfg)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            m.add(format!("resmon.{key}.host_ns"), ns as f64);
            m.add(format!("resmon.{key}.requests"), cfg.requests as f64);
            m.ops += cfg.requests as u64;
            m.fold(&r);
            r.tps
        })
        .collect();
    let mut cells = Vec::new();
    for (ai, &alpha) in ALPHAS.iter().enumerate() {
        let base = tps[ai * per_alpha];
        for (si, &scheme) in MonitorScheme::FIG8B.iter().enumerate() {
            let t = tps[ai * per_alpha + 1 + si];
            cells.push(ThroughputCell {
                scheme,
                alpha,
                tps: t,
                improvement: (t - base) / base,
            });
        }
    }
    cells
}

/// Fabric verb counts of the Figure 6 cells, from each cell's metrics
/// snapshot under a tracer that keeps one event (tracing never changes the
/// schedule). Run apart from the timed passes: enabling the tracer costs
/// host time.
pub fn fig6_fabric_counts(ctx: &Ctx, m: &mut Meter) {
    for proxies in PANELS {
        for cfg in fig6_cells(ctx, proxies) {
            let (_, art) = run_webfarm_traced(&cfg, TraceMode::Sample(u64::MAX));
            let doc = dc_trace::json::parse(&art.metrics_json).expect("metrics snapshot is JSON");
            let get = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            m.add("fabric.reads", get("fabric.verbs.read"));
            m.add("fabric.writes", get("fabric.verbs.write"));
            m.add("fabric.cas", get("fabric.verbs.cas"));
            m.add("fabric.faa", get("fabric.verbs.faa"));
            m.add(
                "fabric.sends",
                get("fabric.verbs.send_rdma") + get("fabric.verbs.send_tcp"),
            );
            m.add(
                "fabric.bytes_moved",
                get("fabric.bytes.read") + get("fabric.bytes.written"),
            );
            m.add("fabric.retransmits", get("sockets.retransmits"));
            m.add("fabric.credit_stalls", get("sockets.credit_stalls"));
            m.max("fabric.qp_active", get("fabric.qp.active"));
        }
    }
}
