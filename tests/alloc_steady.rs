//! The at-scale webfarm's steady-state loop is allocation-free.
//!
//! A counting global allocator measures two runs of the same scaled
//! configuration that differ only in horizon. Its counters are per thread:
//! the tests of this binary run on parallel threads, and each must see only
//! its own allocations (so the farm is pinned to one shard, which runs on
//! the calling thread). Setup allocates — arrival
//! slabs, queues, histograms — and the first measured window may still
//! grow a `VecDeque` or a waiter list to its high-water mark, but the
//! *extra* second of simulated steady state must add (almost) nothing:
//! every per-request structure is recycled slab state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations at least one response payload long — the signature a
    /// copied eRPC response body would leave behind.
    static PAYLOAD_SIZED: Cell<u64> = const { Cell::new(0) };
}
const PAYLOAD_BYTES: usize = 8192;

/// This thread's count so far.
fn count(c: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    c.with(Cell::get)
}

fn bump(c: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = c.try_with(|n| n.set(n.get() + 1));
}

struct Counting;
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump(&ALLOCS);
        if l.size() >= PAYLOAD_BYTES {
            bump(&PAYLOAD_SIZED);
        }
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
#[global_allocator]
static A: Counting = Counting;

#[test]
fn webfarm_scale_steady_state_is_allocation_free() {
    use dc_core::{run_webfarm_scale, ScaleFarmCfg};

    let base = ScaleFarmCfg {
        proxies: 16,
        app_nodes: 8,
        clients: 3_000,
        backend_workers: 1,
        warmup_ns: 200_000_000,
        shards: Some(1),
        ..dc_bench::ext_webfarm::gate_cfg()
    };
    let sat = base.saturation_rps();
    let run_for = |horizon_ns: u64| {
        let cfg = ScaleFarmCfg {
            offered_rps: 0.8 * sat,
            horizon_ns,
            ..base.clone()
        };
        let a0 = count(&ALLOCS);
        let p = run_webfarm_scale(&cfg);
        let da = count(&ALLOCS) - a0;
        (da, p)
    };

    // Warm process-wide state (Zipf table cache, allocator arenas).
    let (_, warm) = run_for(800_000_000);
    assert!(warm.completed > 0);

    let (allocs_short, short) = run_for(1_000_000_000);
    let (allocs_long, long) = run_for(2_000_000_000);
    assert!(
        long.completed > short.completed,
        "the longer run must serve more requests"
    );
    // The extra simulated second adds requests but must not add
    // allocations beyond stabilisation noise (well under 1% of a run's
    // setup allocations).
    let delta = allocs_long.saturating_sub(allocs_short);
    eprintln!(
        "alloc_steady: 1s horizon {allocs_short} allocs, 2s horizon {allocs_long}, delta {delta}"
    );
    assert!(
        delta < allocs_short / 100,
        "steady state allocated: {allocs_short} allocs for 1s horizon, \
         {allocs_long} for 2s (delta {delta})"
    );
}

/// The eRPC incast loop moves every response as a refcounted `Bytes` clone
/// of the server's one buffer. Two runs differing only in request count
/// isolate the steady state: the extra requests must add not a single
/// payload-sized allocation — a copying lane would add one 8 KiB buffer
/// per extra response.
#[test]
fn erpc_incast_steady_state_makes_zero_payload_copies() {
    use bytes::Bytes;
    use dc_fabric::{Cluster, FabricModel, NodeId};
    use dc_sim::Sim;
    use dc_sockets::erpc::{ErpcCfg, ErpcMux, ErpcServer};
    use std::rc::Rc;

    let sessions = 16usize;
    let run_for = |reqs_per_session: usize| {
        let a0 = count(&ALLOCS);
        let p0 = count(&PAYLOAD_SIZED);
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        let resp = Bytes::from(vec![0xA5u8; PAYLOAD_BYTES]);
        let resp_clone = resp.clone();
        let srv = ErpcServer::spawn(
            &cluster,
            NodeId(1),
            2,
            4,
            1_000,
            Rc::new(move |_, _| resp_clone.clone()),
        );
        let mux = ErpcMux::new(&cluster, NodeId(0), ErpcCfg::default());
        let sess: Vec<_> = (0..sessions)
            .map(|i| mux.session(NodeId(1), srv.ports()[i % srv.ports().len()], i as u64))
            .collect();
        let req = Bytes::from_static(&[7u8; 32]);
        let served = sim.run_to(async move {
            let mut served = 0u64;
            for _ in 0..reqs_per_session {
                for s in &sess {
                    let r = s.call(0, req.clone()).await;
                    assert_eq!(r.as_ptr(), resp.as_ptr(), "response was copied");
                    served += 1;
                }
            }
            served
        });
        assert_eq!(served, (sessions * reqs_per_session) as u64);
        (count(&ALLOCS) - a0, count(&PAYLOAD_SIZED) - p0)
    };

    // Warm process-wide state, then measure two request volumes.
    let _ = run_for(4);
    let (allocs_short, payload_short) = run_for(32);
    let (allocs_long, payload_long) = run_for(64);
    let extra_reqs = (sessions * 32) as u64;
    let payload_delta = payload_long.saturating_sub(payload_short);
    let alloc_delta = allocs_long.saturating_sub(allocs_short);
    eprintln!(
        "alloc_steady incast: {extra_reqs} extra requests, {alloc_delta} extra allocs, \
         {payload_delta} extra payload-sized"
    );
    assert_eq!(
        payload_delta, 0,
        "{payload_delta} payload-sized allocations for {extra_reqs} extra \
         zero-copy requests"
    );
    // The whole extra batch must also stay far below one allocation per
    // request — recycled slots, not per-request buffers.
    assert!(
        alloc_delta < extra_reqs / 8,
        "steady incast allocated {alloc_delta} times for {extra_reqs} extra requests"
    );
}
