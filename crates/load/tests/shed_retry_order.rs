//! Regression: requests whose shed backoff ends at the same check must be
//! resent in a fixed order. `RpcClient` keeps its pending requests in a
//! hash map, whose iteration order differs between map instances, so two
//! simulations of one seed used to diverge in who got served first.

use std::sync::{Arc, Mutex};

use suca_bcl::ProcAddr;
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_load::{absorb_completion, LatencyHists, LoadStats, SloReport};
use suca_rpc::{RpcClient, RpcClientConfig, RpcServer, RpcServerConfig};
use suca_sim::mtrace::to_chrome_json;
use suca_sim::{ActorCtx, RunOutcome, SimDuration};

const REQUESTS: u64 = 16;

/// One client floods a one-slot server queue with `REQUESTS` requests, so
/// most are shed at once and their backoffs expire together. Returns the
/// SLO report and the trace, both as JSON.
fn shed_burst() -> (String, String) {
    let cluster = ClusterSpec::dawning3000(2).with_seed(7).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Arc<Mutex<Option<ProcAddr>>> = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(LoadStats::default()));
    let (b2, a2) = (barrier.clone(), addr.clone());
    cluster.spawn_process(1, "server", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.lock().unwrap() = Some(port.addr());
        let cfg = RpcServerConfig {
            queue_cap: 1,
            idle_timeout: SimDuration::from_ms(2),
            ..RpcServerConfig::default()
        };
        let mut srv = RpcServer::new(ctx, port, cfg).expect("server up");
        b2.wait(ctx);
        srv.serve_until_idle(ctx, &mut |ctx: &mut ActorCtx, op: u8, req: &[u8]| {
            ctx.sleep(SimDuration::from_us(30));
            let mut out = req.to_vec();
            out.push(op);
            out
        });
    });
    let hists = LatencyHists::new(&sim.metrics());
    let st = stats.clone();
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        let ccfg = RpcClientConfig {
            max_attempts: 6,
            backoff: SimDuration::from_us(50),
            ..RpcClientConfig::default()
        };
        let mut cli = RpcClient::new(ctx, port, ccfg).expect("client up");
        barrier.wait(ctx);
        let dst = addr.lock().unwrap().expect("server ready");
        let mut stats = LoadStats::default();
        for i in 0..REQUESTS {
            cli.issue(ctx, dst, (i % 3) as u8, &i.to_le_bytes(), i)
                .expect("issue");
            stats.issued += 1;
        }
        while cli.in_flight() > 0 {
            for c in cli.pump(ctx, SimDuration::from_us(500)) {
                absorb_completion(&c, &mut stats, &hists);
            }
        }
        cli.quiesce(ctx, SimDuration::from_us(200));
        *st.lock().unwrap() = stats;
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "shed burst hung");
    let stats = *stats.lock().unwrap();
    assert!(stats.accounted(), "requests leaked: {stats:?}");
    assert!(
        sim.get_count("rpc.cli_retries") >= REQUESTS,
        "the burst must drive shed retries"
    );
    let slo = SloReport::gather(&sim, "shed_burst", "myrinet", 2, 1, &stats);
    (slo.to_json(), to_chrome_json(&cluster.trace_events()))
}

#[test]
fn simultaneous_shed_retries_resend_in_request_order() {
    let (slo_a, trace_a) = shed_burst();
    let (slo_b, trace_b) = shed_burst();
    assert_eq!(slo_a, slo_b, "SLO report differs between identical runs");
    assert!(trace_a == trace_b, "trace differs between identical runs");
}
