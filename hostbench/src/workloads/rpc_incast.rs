//! `rpc_incast` — the incast fan-in sweep: 64–2048 sessions × {eRPC, SDP,
//! AZ-SDP}, six closed-loop calls per session, 32 B requests and 8 KiB
//! responses on a clean fabric. Transport-bound: two-sided send/recv, the
//! stream copy path, zero-copy AZ-SDP and eRPC credits/AIMD; `ddss`, `dlm`,
//! `coopcache` and the shard driver are bypassed.
//!
//! `ext_incast::run_cell` fixes its seed, so each cell is built here from
//! the same public calls with the seed taken from the benchmark's `--seed`
//! (the committed seed at the default). Every session keeps one call in
//! flight — the scenario's closed-loop shape.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use dc_bench::ext_incast::{
    table, IncastLane, IncastPoint, CLIENT_NODES, ECN_THRESHOLD, FANINS, HANDLER_CPU_NS,
    REQS_PER_SESSION, REQ_BYTES, RESP_BYTES, RTO_NS, SEED,
};
use dc_fabric::{Cluster, FabricModel, NodeId};
use dc_sim::Sim;
use dc_sockets::{connect, ErpcCfg, ErpcMux, ErpcServer, SocketsConfig, StreamKind};

use crate::spans::span;
use crate::{Ctx, Meter};

/// Metric key of a lane.
pub fn lane_key(lane: IncastLane) -> &'static str {
    match lane {
        IncastLane::Erpc => "erpc",
        IncastLane::Sdp => "sdp",
        IncastLane::AzSdp => "azsdp",
    }
}

/// One pass: every (lane, fan-in) cell on a fresh cluster.
pub fn run(ctx: &Ctx, m: &mut Meter) {
    let seed = ctx.seed_for(SEED);
    let mut points = Vec::new();
    for lane in IncastLane::ALL {
        let key = lane_key(lane);
        let t0 = Instant::now();
        let mut calls = 0u64;
        span(format_args!("lane.{key}"), || {
            for &fanin in &FANINS {
                let p = span(format_args!("cell.{fanin}"), || cell(m, lane, fanin, seed));
                calls += (fanin * REQS_PER_SESSION) as u64;
                points.push(p);
            }
        });
        m.add(
            format!("sockets.{key}.host_ns_per_call"),
            super::per(t0.elapsed().as_nanos() as u64, calls),
        );
        m.ops += calls;
    }
    m.fold(&points);
    m.reports
        .push(super::report("ext_incast", &[table(&points)]));
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx] as f64 / 1e3
}

/// Build and run one cell, as `ext_incast::run_cell` does on a clean
/// fabric, with `seed` as the session rate-start jitter seed.
fn cell(m: &mut Meter, lane: IncastLane, fanin: usize, seed: u64) -> IncastPoint {
    let latencies: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let (sim, cluster, handles, muxes) = m.setup("setup", || {
        let sim = Sim::new();
        let cluster = Cluster::new(
            sim.handle(),
            FabricModel::calibrated_2007(),
            1 + CLIENT_NODES,
        );
        let server = NodeId(0);
        let resp = Bytes::from(vec![0x5au8; RESP_BYTES]);
        let req = Bytes::from(vec![0x17u8; REQ_BYTES]);
        let h = sim.handle();
        let mut handles = Vec::with_capacity(fanin);
        let mut muxes = Vec::new();
        match lane {
            IncastLane::Erpc => {
                cluster.set_ecn_threshold(Some(ECN_THRESHOLD));
                let srv = ErpcServer::spawn(&cluster, server, 2, 4, HANDLER_CPU_NS, {
                    let resp = resp.clone();
                    Rc::new(move |_, _| resp.clone())
                });
                for node in 0..CLIENT_NODES {
                    muxes.push(ErpcMux::new(
                        &cluster,
                        NodeId(1 + node as u32),
                        ErpcCfg {
                            rto_ns: RTO_NS,
                            ..ErpcCfg::default()
                        },
                    ));
                }
                for i in 0..fanin {
                    let sess = muxes[i % CLIENT_NODES].session(
                        server,
                        srv.ports()[i % srv.ports().len()],
                        seed.wrapping_add(i as u64),
                    );
                    let req = req.clone();
                    let lat = latencies.clone();
                    let h = h.clone();
                    handles.push(sim.spawn(async move {
                        for _ in 0..REQS_PER_SESSION {
                            let t0 = h.now();
                            sess.call(0, req.clone()).await;
                            lat.borrow_mut().push(h.now() - t0);
                        }
                    }));
                }
            }
            IncastLane::Sdp | IncastLane::AzSdp => {
                let kind = if lane == IncastLane::Sdp {
                    StreamKind::Sdp
                } else {
                    StreamKind::AzSdp
                };
                for i in 0..fanin {
                    let client = NodeId(1 + (i % CLIENT_NODES) as u32);
                    let (mut cli_end, mut srv_end) =
                        connect(&cluster, client, server, kind, SocketsConfig::default());
                    let cpu = cluster.cpu(server);
                    let resp = resp.clone();
                    sim.spawn(async move {
                        for _ in 0..REQS_PER_SESSION {
                            srv_end.recv().await;
                            cpu.execute(HANDLER_CPU_NS).await;
                            srv_end.send(&resp).await;
                        }
                    });
                    let req = req.clone();
                    let lat = latencies.clone();
                    let h = h.clone();
                    handles.push(sim.spawn(async move {
                        for _ in 0..REQS_PER_SESSION {
                            let t0 = h.now();
                            cli_end.send(&req).await;
                            cli_end.recv().await;
                            lat.borrow_mut().push(h.now() - t0);
                        }
                    }));
                }
            }
        }
        (sim, cluster, handles, muxes)
    });

    let h = sim.handle();
    let elapsed_ns = sim.run_to(async move {
        for hd in handles {
            hd.await;
        }
        h.now()
    });
    drop(muxes);

    let mut lats = latencies.borrow().clone();
    if lats.len() != fanin * REQS_PER_SESSION {
        m.problem(format!(
            "{} fan-in {fanin}: {} of {} calls completed",
            lane.label(),
            lats.len(),
            fanin * REQS_PER_SESSION
        ));
        lats.push(0);
    }
    lats.sort_unstable();
    let stats = cluster.stats();
    super::add_verbs(m, &cluster);
    if lane == IncastLane::Erpc {
        m.add("sockets.erpc.marks", cluster.ecn_marks() as f64);
        m.add("sockets.erpc.retx", stats.retransmits as f64);
    }
    IncastPoint {
        lane,
        fanin,
        goodput_rps: lats.len() as f64 * 1e9 / elapsed_ns as f64,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        p999_us: percentile(&lats, 0.999),
        retransmits: stats.retransmits,
        marks: cluster.ecn_marks(),
        qp_active: cluster.qp_active(),
    }
}
