//! Property test of the eRPC session window: any window size, any number of
//! concurrent callers on one session, any seeded loss — every call
//! completes exactly once with its own response, and every handler runs
//! exactly once.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use proptest::prelude::*;

use dc_fabric::{Cluster, FabricModel, FaultPlan, NodeId};
use dc_sim::time::secs;
use dc_sim::Sim;
use dc_sockets::{ErpcCfg, ErpcMux, ErpcServer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_call_completes_exactly_once(
        window in 1u32..5,
        callers in 1usize..9,
        calls_each in 1usize..5,
        drop_pct in 0u32..20,
        fault_seed in any::<u64>(),
    ) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.handle(), FabricModel::calibrated_2007(), 2);
        if drop_pct > 0 {
            cluster.install_faults(FaultPlan::from_parts(
                fault_seed,
                vec![],
                vec![],
                vec![],
                f64::from(drop_pct) / 100.0,
            ));
        }
        let total = callers * calls_each;
        let handled = Rc::new(RefCell::new(vec![0u32; total]));
        let h = Rc::clone(&handled);
        let srv = ErpcServer::spawn(
            &cluster,
            NodeId(1),
            1,
            window,
            0,
            Rc::new(move |_, req: Bytes| {
                h.borrow_mut()[u32::from_le_bytes(req[..4].try_into().unwrap()) as usize] += 1;
                req
            }),
        );
        let cfg = ErpcCfg { window, rto_ns: 200_000, max_retx: 64, ..ErpcCfg::default() };
        let mux = ErpcMux::new(&cluster, NodeId(0), cfg);
        let sess = mux.session(NodeId(1), srv.ports()[0], fault_seed);
        let completed = Rc::new(RefCell::new(vec![0u32; total]));
        for c in 0..callers {
            let (s, done) = (sess.clone(), Rc::clone(&completed));
            sim.spawn(async move {
                for k in 0..calls_each {
                    let id = (c * calls_each + k) as u32;
                    let mut req = id.to_le_bytes().to_vec();
                    req.resize(64, c as u8);
                    let resp = s.call(0, Bytes::from(req.clone())).await;
                    assert_eq!(&resp[..], &req[..], "call {id} got another call's response");
                    done.borrow_mut()[id as usize] += 1;
                }
            });
        }
        // A lost response would leave its caller parked while the sweeper
        // keeps the clock running: bound virtual time instead of hanging.
        sim.run_until(secs(10));
        prop_assert!(completed.borrow().iter().all(|&n| n == 1), "completions {:?}", completed.borrow());
        prop_assert!(handled.borrow().iter().all(|&n| n == 1), "handler runs {:?}", handled.borrow());
    }
}
