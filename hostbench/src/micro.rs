//! Microloops: the host cost of one operation of each layer, measured on a
//! minimal fixture built from the layer's public API. Each loop runs a
//! fixed number of operations three times and reports the median ns/op.

use std::cell::Cell;
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use dc_ddss::{Coherence, Ddss, DdssConfig};
use dc_dlm::{DesignKind, DlmConfig, LockMode};
use dc_fabric::{Cluster, FabricModel, NodeId, RemoteAddr, Transport};
use dc_sim::sync::{Notify, Semaphore};
use dc_sim::Sim;
use dc_svc::{Cost, Dispatcher, Mode, Service, ServiceSpec, Subsys, SvcClient};
use dc_trace::StreamHist;
use dc_workloads::{ArrivalProcess, BurstyCfg, Zipf};

use crate::spans::span;

const REPS: usize = 3;

/// A loop of one verb from node 0 against `addr` on node 1.
type VerbLoop = fn(Cluster, RemoteAddr) -> Pin<Box<dyn Future<Output = ()>>>;

/// Median over [`REPS`] runs of `f`, which performs `ops` operations, in
/// host ns per operation.
fn ns_per_op(name: &str, ops: u64, mut f: impl FnMut()) -> (String, f64) {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            span(name, &mut f);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    (name.to_string(), v[REPS / 2])
}

/// Executor, timer wheel and the sync primitives.
pub fn sim() -> Vec<(String, f64)> {
    const N: u64 = 200_000;
    vec![
        ns_per_op("sim.spawn_poll_ns", N, || {
            let sim = Sim::new();
            let h = sim.handle();
            sim.run_to(async move {
                for i in 0..N {
                    black_box(h.spawn(async move { i }).await);
                }
            });
        }),
        ns_per_op("sim.timer_ns", N, || {
            let sim = Sim::new();
            let h = sim.handle();
            // Spread deadlines so the wheel's levels all see traffic.
            sim.run_to(async move {
                for i in 0..N {
                    h.sleep(1 + (i * 7919) % 100_000).await;
                }
            });
        }),
        ns_per_op("sim.notify_ns", 2 * N, || {
            let sim = Sim::new();
            let (ping, pong) = (Rc::new(Notify::new()), Rc::new(Notify::new()));
            let (p2, q2) = (ping.clone(), pong.clone());
            sim.spawn(async move {
                for _ in 0..N {
                    p2.notified().await;
                    q2.notify_one();
                }
            });
            sim.run_to(async move {
                for _ in 0..N {
                    ping.notify_one();
                    pong.notified().await;
                }
            });
        }),
        ns_per_op("sim.semaphore_ns", N, || {
            let sim = Sim::new();
            let sem = Rc::new(Semaphore::new(1));
            let h = sim.handle();
            // Two tasks contend for one permit, handing it over each time.
            let s2 = sem.clone();
            let h2 = h.clone();
            sim.spawn(async move {
                for _ in 0..N / 2 {
                    s2.acquire().await;
                    h2.yield_now().await;
                    s2.release();
                }
            });
            sim.run_to(async move {
                for _ in 0..N / 2 {
                    sem.acquire().await;
                    h.yield_now().await;
                    sem.release();
                }
            });
        }),
    ]
}

/// Zipf sampling, arrival processes and the streaming histogram.
pub fn workloads_trace() -> Vec<(String, f64)> {
    const N: u64 = 2_000_000;
    let zipf = Zipf::new(262_144, 0.9);
    vec![
        ns_per_op("workloads.zipf_ns", N, || {
            let mut s = 0x5eed_u64;
            let mut acc = 0usize;
            for _ in 0..N {
                s = dc_sim::rng::splitmix64(s);
                acc ^= zipf.sample_u((s >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
            }
            black_box(acc);
        }),
        ns_per_op("workloads.arrival_next_ns.poisson", N, || {
            let mut a = ArrivalProcess::poisson(7, 50_000.0);
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(a.next_ns());
            }
            black_box(acc);
        }),
        ns_per_op("workloads.arrival_next_ns.mmpp2", N, || {
            let mut a = ArrivalProcess::bursty(7, 50_000.0, BurstyCfg::default());
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(a.next_ns());
            }
            black_box(acc);
        }),
        ns_per_op("trace.hist_record_ns", N, || {
            let mut h = StreamHist::new();
            let mut s = 0x5eed_u64;
            for _ in 0..N {
                s = dc_sim::rng::splitmix64(s);
                h.record(1_000 + (s % 10_000_000));
            }
            black_box(h.count());
        }),
    ]
}

/// Cluster construction, region registration and the five verbs.
pub fn fabric() -> Vec<(String, f64)> {
    const N: u64 = 100_000;
    const CLUSTERS: u64 = 2_000;
    const MIB: usize = 1 << 20;
    const REG_MIB: u64 = 64;
    let verb = |name: &str, op: VerbLoop| {
        ns_per_op(name, N, || {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
            let region = cluster.register(NodeId(1), 4096);
            let addr = RemoteAddr {
                node: NodeId(1),
                region,
                offset: 64,
            };
            sim.run_to(op(cluster, addr));
        })
    };
    vec![
        ns_per_op("fabric.cluster_new_ns", CLUSTERS, || {
            let sim = Sim::new();
            for _ in 0..CLUSTERS {
                black_box(Cluster::new(
                    sim.handle(),
                    FabricModel::calibrated_2007(),
                    9,
                ));
            }
        }),
        ns_per_op("fabric.register_ns_per_mib", REG_MIB, || {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
            for _ in 0..REG_MIB / 8 {
                black_box(cluster.register(NodeId(1), 8 * MIB));
            }
        }),
        verb("fabric.read_ns", |c, a| {
            Box::pin(async move {
                for _ in 0..N {
                    black_box(c.rdma_read(NodeId(0), a, 64).await);
                }
            })
        }),
        verb("fabric.write_ns", |c, a| {
            Box::pin(async move {
                let data = [0x5au8; 64];
                for _ in 0..N {
                    c.rdma_write(NodeId(0), a, &data).await;
                }
            })
        }),
        verb("fabric.cas_ns", |c, a| {
            Box::pin(async move {
                for i in 0..N {
                    black_box(c.atomic_cas(NodeId(0), a, i, i + 1).await);
                }
            })
        }),
        verb("fabric.faa_ns", |c, a| {
            Box::pin(async move {
                for _ in 0..N {
                    black_box(c.atomic_faa(NodeId(0), a, 1).await);
                }
            })
        }),
        ns_per_op("fabric.send_recv_ns", N, || {
            let sim = Sim::new();
            let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
            let port = cluster.alloc_port_for(NodeId(1), "bench.sink");
            let mut ep = cluster.bind(NodeId(1), port);
            let msg = Bytes::from(vec![0x17u8; 64]);
            sim.spawn(async move {
                for _ in 0..N {
                    black_box(ep.recv().await);
                }
            });
            sim.run_to(async move {
                for _ in 0..N {
                    cluster
                        .send(NodeId(0), NodeId(1), port, msg.clone(), Transport::RdmaSend)
                        .await;
                }
            });
        }),
    ]
}

/// One `SvcClient` round trip through a `Service` dispatcher.
pub fn svc() -> Vec<(String, f64)> {
    const N: u64 = 50_000;
    vec![ns_per_op("svc.call_ns", N, || {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let port = cluster.alloc_port_for(NodeId(1), "bench.echo");
        let dispatcher = Dispatcher::new().fallback(|ctx, msg| async move {
            let req = dc_svc::parse_request(&msg);
            dc_svc::respond(
                &ctx.cluster,
                ctx.node,
                &req,
                &req.payload,
                Transport::RdmaSend,
            )
            .await;
        });
        Service::spawn(
            &cluster,
            ServiceSpec {
                name: "bench.echo",
                subsys: Subsys::App,
                node: NodeId(1),
                port,
                cost: Cost::None,
                mode: Mode::Serial,
                queue_cap: None,
            },
            dispatcher,
        );
        let client = SvcClient::new(&cluster, NodeId(0));
        sim.run_to(async move {
            for _ in 0..N {
                black_box(
                    client
                        .call(NodeId(1), port, &[1, 2, 3, 4], Transport::RdmaSend)
                        .await,
                );
            }
        });
    })]
}

/// `Ddss::new` and put/get per coherence model.
pub fn ddss() -> Vec<(String, f64)> {
    const NEWS: u64 = 40;
    const N: u64 = 20_000;
    let mut v = vec![ns_per_op("ddss.new_ns", NEWS, || {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        for _ in 0..NEWS {
            black_box(Ddss::new(
                &cluster,
                DdssConfig::default(),
                &[NodeId(0), NodeId(1)],
            ));
        }
    })];
    for model in Coherence::FIG3A {
        for get in [false, true] {
            let name = format!(
                "ddss.{}_ns.{}",
                if get { "get" } else { "put" },
                model.label()
            );
            // Build outside the timed loop; time only the ops.
            let mut ns = Vec::new();
            for _ in 0..REPS {
                let sim = Sim::new();
                let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
                let ddss = Ddss::new(&cluster, DdssConfig::default(), &[NodeId(0), NodeId(1)]);
                let client = ddss.client(NodeId(0));
                let spent = Rc::new(Cell::new(0u64));
                let out = spent.clone();
                span(&name, || {
                    sim.run_to(async move {
                        let key = client
                            .allocate(NodeId(1), 64, model)
                            .await
                            .expect("allocation failed");
                        let data = [0xa5u8; 64];
                        client.put(&key, &data).await;
                        let t0 = Instant::now();
                        for _ in 0..N {
                            if get {
                                black_box(client.get(&key).await);
                            } else {
                                client.put(&key, &data).await;
                            }
                        }
                        out.set(t0.elapsed().as_nanos() as u64);
                    })
                });
                ns.push(spent.get() as f64 / N as f64);
            }
            ns.sort_by(f64::total_cmp);
            v.push((name, ns[REPS / 2]));
        }
    }
    v
}

/// One uncontended acquire + release per lock design.
pub fn dlm() -> Vec<(String, f64)> {
    const N: u64 = 20_000;
    DesignKind::ALL
        .into_iter()
        .map(|design| {
            let name = format!(
                "dlm.{}.uncontended_ns",
                crate::workloads::primitives::design_key(design)
            );
            ns_per_op(&name, N, || {
                let sim = Sim::new();
                let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
                let mut clients = design.build(
                    &cluster,
                    DlmConfig::default(),
                    NodeId(0),
                    4,
                    &[NodeId(0), NodeId(1)],
                );
                let client = clients.pop().expect("one client per member");
                sim.run_to(async move {
                    for _ in 0..N {
                        client.lock(0, LockMode::Exclusive).await;
                        client.unlock(0).await;
                    }
                });
            })
        })
        .collect()
}
