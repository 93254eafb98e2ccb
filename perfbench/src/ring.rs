//! `bcl_ring`: a neighbour ring on the 512-node nwrc mesh driving raw
//! `BclPort` calls, plus 2-node Myrinet runs at the paper's Fig 8 / Fig 9
//! anchor points.
//!
//! Every node sends to its right neighbour. Phases 1 and 3 are timed:
//! each round has two turns, and a barrier starts each turn. In turn 0
//! the even nodes send while the odd nodes wait in `wait_recv`; in turn 1
//! the roles swap. A receiver is thus blocked before its message can
//! arrive, so send start to `wait_recv` return is the stack's one-way
//! latency and holds none of the receiver's own work. Senders think a
//! seeded time first, so neighbours' sends overlap.
//!
//! Phase 1 sends small content-checked messages (round, sender and seeded
//! bytes; 8 bytes plus an exponential draw of mean 56, at most 1 KiB) on
//! the system channel. Phase 2 streams 64 KiB messages over two normal
//! channels with receiver-driven credit, after a seeded think time of up
//! to 20 µs each: a node re-posts a channel after draining it and returns
//! one 8-byte credit to its left neighbour, so no message ever arrives at
//! an unposted channel. It gives `ring_mb_s`. Phase 3 times 56 to 64 KiB
//! messages in turns, like phase 1.

use std::sync::{Arc, Mutex};

use suca_bcl::{BclPort, ChannelId, ProcAddr, RecvEvent};
use suca_cluster::{measure_bandwidth, measure_one_way, ClusterSpec, SimBarrier};
use suca_sim::{ActorCtx, RunOutcome, SimDuration, SimRng, TelemetryConfig};

use crate::cpu;
use crate::report::{span_layers, switch_drops, Layers, Report};
use crate::spans::{Recorder, ROOT};
use crate::stats::{supports, Latencies};

const NODES: u32 = 512;
const CLUSTER_SEED: u64 = 0xE7_0001;
/// Phase-1 rounds: 512 x 8 = 4,096 one-way samples.
const SMALL_ROUNDS: u32 = 8;
/// Phase-3 rounds: 512 x 2 = 1,024 one-way samples of 56 to 64 KiB.
const LARGE_ROUNDS: u32 = 2;
/// Phase-1 message sizes: 8 bytes plus an exponential draw with this
/// mean, at most 1 KiB, so most messages are near the smallest and
/// percentiles are not pinned to one size.
const SMALL_MIN: u64 = 8;
const SMALL_EXTRA_MEAN: f64 = 56.0;
const SMALL_MAX: u64 = 1024;
/// Senders think up to this long before each message: phase 1, then
/// phases 2 and 3.
const SMALL_THINK_NS: u64 = 40_000;
const LARGE_THINK_NS: u64 = 20_000;
/// Phase-2 messages per node.
const LARGE_MSGS: u32 = 4;
const LARGE_BYTES: u64 = 64 * 1024;
/// Phase-3 messages are 56 to 64 KiB, seeded: at one size the one-way
/// latency of a message is fixed by the cost model, so every percentile
/// would read the same on every seed.
const TIMED_MIN: u64 = 56 * 1024;
const WINDOW: u16 = 2;
const CREDIT_BYTES: u64 = 8;

/// Paper anchors: Fig 8 minimal one-way latency (µs), Fig 9 peak
/// bandwidth (MB/s) and Fig 9 128 KiB transfer time (µs).
const FIG8_MIN_US: f64 = 18.3;
const FIG9_PEAK_MB_S: f64 = 146.0;
const FIG9_128K_US: f64 = 898.0;
/// Largest deviation from an anchor the model may show.
const ANCHOR_TOLERANCE_PCT: f64 = 10.0;

/// Deterministic body of large message `seq` from `node`, varied by the
/// workload seed: 64 KiB in phase 2, 56 to 64 KiB in phase 3.
fn large_body(seed: u64, node: u32, seq: u32) -> Vec<u8> {
    let mut rng = SimRng::fork(seed, &format!("ring.body.{node}.{seq}"));
    let len = if seq < LARGE_MSGS {
        LARGE_BYTES
    } else {
        rng.range(TIMED_MIN, LARGE_BYTES + 1)
    };
    let mut out = vec![0u8; len as usize];
    rng.fill_bytes(&mut out);
    out[..4].copy_from_slice(&seq.to_le_bytes());
    out[4..8].copy_from_slice(&node.to_le_bytes());
    out
}

/// Deterministic body of phase-1 round `m` from `node`: round and
/// sender, then seeded bytes, 8 bytes to 1 KiB long.
fn small_body(seed: u64, node: u32, m: u32) -> Vec<u8> {
    let mut rng = SimRng::fork(seed, &format!("ring.small.{node}.{m}"));
    let extra = -(1.0 - rng.unit_f64()).ln() * SMALL_EXTRA_MEAN;
    let len = (SMALL_MIN + extra as u64).min(SMALL_MAX);
    let mut out = vec![0u8; len as usize];
    rng.fill_bytes(&mut out);
    out[..4].copy_from_slice(&m.to_le_bytes());
    out[4..8].copy_from_slice(&node.to_le_bytes());
    out
}

/// Virtual instants of one timed phase at one node, per round.
#[derive(Default)]
struct Timed {
    /// Send start of the node's own message.
    sent: Vec<u64>,
    /// Entry into and return from `wait_recv` for the left neighbour's.
    waiting: Vec<u64>,
    recv: Vec<u64>,
}

/// What one node observed.
#[derive(Default)]
struct NodeLog {
    small: Timed,
    large: Timed,
    /// Phase-2 deliveries, start and last receive, virtual ns.
    streamed: u64,
    large_start: u64,
    large_end: u64,
    sends: u64,
    send_traps: u64,
    trap_misses: u64,
    /// Delivery faults: wrong order, wrong sender, wrong bytes, wrong size.
    bad: u64,
    payload_bytes: u64,
}

struct Node<'a> {
    port: &'a BclPort,
    rec: &'a Recorder,
    traps: String,
    log: NodeLog,
}

impl Node<'_> {
    /// `BclPort::send` with its span and trap count.
    fn send(
        &mut self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        ch: ChannelId,
        buf: suca_mem::VirtAddr,
        len: u64,
        parent: u32,
    ) {
        let before = ctx.sim().get_count(&self.traps);
        let sp = self.rec.begin(ctx, "bcl.send", 0, parent);
        let r = self.port.send(ctx, dst, ch, buf, len);
        self.rec.end(ctx, sp);
        let traps = ctx.sim().get_count(&self.traps) - before;
        if r.is_err() {
            self.log.bad += 1;
        }
        self.log.sends += 1;
        self.log.send_traps += traps;
        self.log.trap_misses += u64::from(traps != 1);
        // Send completions carry nothing the ring needs; drain them.
        while self.port.poll_send(ctx).is_some() {}
    }

    /// `BclPort::wait_recv` with its span.
    fn wait_recv(&mut self, ctx: &mut ActorCtx, parent: u32) -> RecvEvent {
        let sp = self.rec.begin(ctx, "bcl.wait_recv", 0, parent);
        let ev = self.port.wait_recv(ctx);
        self.rec.end(ctx, sp);
        ev
    }
}

/// Whether node `x` sends (rather than receives) in `turn` of a round.
fn sends_in(x: u32, turn: u32) -> bool {
    x % 2 == turn
}

/// Phase 1 for one node: timed rounds of small messages, each in its own
/// slot of one buffer so no send rewrites bytes the NIC may still read.
fn small_phase(
    ctx: &mut ActorCtx,
    n: &mut Node<'_>,
    x: u32,
    seed: u64,
    addrs: &[ProcAddr],
    barrier: &SimBarrier,
) {
    let port = n.port;
    let right = addrs[((x + 1) % NODES) as usize];
    let left = addrs[((x + NODES - 1) % NODES) as usize];
    let left_node = (x + NODES - 1) % NODES;
    let mut rng = SimRng::fork(seed, &format!("ring.think.small.{x}"));
    let small = port
        .alloc_buffer(SMALL_MAX * u64::from(SMALL_ROUNDS))
        .expect("small buffers");
    let mut lens = Vec::new();
    for m in 0..SMALL_ROUNDS {
        let body = small_body(seed, x, m);
        port.write_buffer(small.add(SMALL_MAX * u64::from(m)), &body)
            .expect("fill small");
        lens.push(body.len() as u64);
    }
    for m in 0..SMALL_ROUNDS {
        for turn in 0..2 {
            barrier.wait(ctx);
            let round = n.rec.begin(ctx, "bench.round", u64::from(m), ROOT);
            let rid = round.as_ref().map_or(ROOT, |o| o.id());
            if sends_in(x, turn) {
                ctx.sleep(SimDuration::from_ns(rng.range(0, SMALL_THINK_NS)));
                n.log.small.sent.push(ctx.now().as_ns());
                let buf = small.add(SMALL_MAX * u64::from(m));
                n.send(ctx, right, ChannelId::SYSTEM, buf, lens[m as usize], rid);
            } else {
                n.log.small.waiting.push(ctx.now().as_ns());
                let ev = n.wait_recv(ctx, rid);
                n.log.small.recv.push(ctx.now().as_ns());
                let data = port.recv_bytes(ctx, &ev).unwrap_or_default();
                let want = small_body(seed, left_node, m);
                if ev.src != left || ev.channel != ChannelId::SYSTEM || data != want {
                    n.log.bad += 1;
                }
                n.log.payload_bytes += data.len() as u64;
            }
            n.rec.end(ctx, round);
        }
    }
}

/// Phase 3 for one node: timed rounds of 64 KiB messages on channel 0,
/// which the receiver re-posts before the next turn.
fn timed_large_phase(
    ctx: &mut ActorCtx,
    n: &mut Node<'_>,
    x: u32,
    seed: u64,
    recv_buf: suca_mem::VirtAddr,
    addrs: &[ProcAddr],
    barrier: &SimBarrier,
) {
    let port = n.port;
    let right = addrs[((x + 1) % NODES) as usize];
    let left = addrs[((x + NODES - 1) % NODES) as usize];
    let left_node = (x + NODES - 1) % NODES;
    let send_buf = port.alloc_buffer(LARGE_BYTES).expect("send buffer");
    let mut think = SimRng::fork(seed, &format!("ring.think.timed.{x}"));
    port.post_recv_at(ctx, 0, recv_buf, LARGE_BYTES)
        .expect("post timed");
    for m in 0..LARGE_ROUNDS {
        let seq = LARGE_MSGS + m;
        for turn in 0..2 {
            barrier.wait(ctx);
            if sends_in(x, turn) {
                let body = large_body(seed, x, seq);
                port.write_buffer(send_buf, &body).expect("fill large");
                ctx.sleep(SimDuration::from_ns(think.range(0, LARGE_THINK_NS)));
                n.log.large.sent.push(ctx.now().as_ns());
                let len = body.len() as u64;
                n.send(ctx, right, ChannelId::normal(0), send_buf, len, ROOT);
            } else {
                n.log.large.waiting.push(ctx.now().as_ns());
                let ev = n.wait_recv(ctx, ROOT);
                n.log.large.recv.push(ctx.now().as_ns());
                let data = port.recv_bytes(ctx, &ev).unwrap_or_default();
                if ev.src != left
                    || ev.channel != ChannelId::normal(0)
                    || data != large_body(seed, left_node, seq)
                {
                    n.log.bad += 1;
                }
                n.log.payload_bytes += data.len() as u64;
                if m + 1 < LARGE_ROUNDS {
                    port.post_recv_at(ctx, 0, recv_buf, LARGE_BYTES)
                        .expect("re-post timed");
                }
            }
        }
    }
}

/// Phase 2 for one node: credit-driven 64 KiB stream to the right.
fn large_phase(
    ctx: &mut ActorCtx,
    n: &mut Node<'_>,
    x: u32,
    seed: u64,
    recv_bufs: &[suca_mem::VirtAddr],
    addrs: &[ProcAddr],
) {
    let port = n.port;
    let right = addrs[((x + 1) % NODES) as usize];
    let left = addrs[((x + NODES - 1) % NODES) as usize];
    let left_node = (x + NODES - 1) % NODES;
    let send_bufs: Vec<_> = (0..WINDOW)
        .map(|_| port.alloc_buffer(LARGE_BYTES).expect("send buffer"))
        .collect();
    let credit = port.alloc_buffer(CREDIT_BYTES).expect("credit buffer");
    port.write_buffer(credit, &u64::from(x).to_le_bytes())
        .expect("fill credit");
    let mut think = SimRng::fork(seed, &format!("ring.think.large.{x}"));
    n.log.large_start = ctx.now().as_ns();
    let (mut sent, mut got, mut credits) = (0u32, 0u32, u32::from(WINDOW));
    while sent < LARGE_MSGS || got < LARGE_MSGS {
        if sent < LARGE_MSGS && credits > 0 {
            let c = (sent % u32::from(WINDOW)) as usize;
            ctx.sleep(SimDuration::from_ns(think.range(0, LARGE_THINK_NS)));
            port.write_buffer(send_bufs[c], &large_body(seed, x, sent))
                .expect("fill large");
            n.send(
                ctx,
                right,
                ChannelId::normal(c as u16),
                send_bufs[c],
                LARGE_BYTES,
                ROOT,
            );
            sent += 1;
            credits -= 1;
            continue;
        }
        let ev = n.wait_recv(ctx, ROOT);
        if ev.channel == ChannelId::SYSTEM {
            let _ = port.recv_bytes(ctx, &ev);
            credits += 1;
            continue;
        }
        let data = port.recv_bytes(ctx, &ev).unwrap_or_default();
        let c = ev.channel.index;
        if ev.src != left
            || u32::from(c) != got % u32::from(WINDOW)
            || data != large_body(seed, left_node, got)
        {
            n.log.bad += 1;
        }
        n.log.payload_bytes += data.len() as u64;
        n.log.streamed += 1;
        got += 1;
        // Re-post and return the credit only while the left neighbour
        // still has messages to send on this channel.
        if got + u32::from(WINDOW) <= LARGE_MSGS {
            port.post_recv_at(ctx, c, recv_bufs[c as usize], LARGE_BYTES)
                .expect("re-post");
            n.send(ctx, left, ChannelId::SYSTEM, credit, CREDIT_BYTES, ROOT);
        }
    }
    n.log.large_end = ctx.now().as_ns();
}

/// 2-node Myrinet runs at the Fig 8 / Fig 9 anchor points; returns the
/// largest relative deviation, in percent.
fn paper_deviation() -> (f64, f64, f64, f64) {
    let spec = ClusterSpec::dawning3000(2);
    let lat = measure_one_way(spec.clone(), 0, 1, 0, 2, 6).one_way_us;
    let peak = [32 * 1024u64, 64 * 1024, 128 * 1024]
        .iter()
        .map(|&s| {
            let count = (2 * 1024 * 1024 / s).clamp(8, 256) as u32;
            (
                s,
                measure_bandwidth(spec.clone(), 0, 1, s, count, 8).mb_per_sec,
            )
        })
        .collect::<Vec<_>>();
    let peak_bw = peak.iter().map(|p| p.1).fold(0.0, f64::max);
    let bw128 = peak.iter().find(|p| p.0 == 128 * 1024).map_or(0.0, |p| p.1);
    let t128 = 131_072.0 / bw128;
    let dev = |m: f64, a: f64| (m - a).abs() / a * 100.0;
    let worst = dev(lat, FIG8_MIN_US)
        .max(dev(peak_bw, FIG9_PEAK_MB_S))
        .max(dev(t128, FIG9_128K_US));
    (worst, lat, peak_bw, t128)
}

/// Simulations per run, each on its own seed derived from the run's seed.
pub const SIMS: u64 = 3;

/// Deliveries pooled over the run's simulations.
#[derive(Default)]
struct Pooled {
    small: Latencies,
    large: Latencies,
    sends: u64,
    send_traps: u64,
    /// Phase-2 payload delivered, bytes, and summed per-node phase time.
    large_bytes: u64,
    large_ns: u64,
    nodes: u64,
    expected: u64,
    bad: u64,
}

/// Build the ring, run both phases, and check every delivery.
fn simulate(seed: u64, rec: &Recorder, rep: &mut Report, layers: &mut Layers, p: &mut Pooled) {
    // Set-up is timed on this thread's CPU clock: the threads of the
    // previous simulation are still exiting on the same CPU, and wall time
    // would charge their teardown to this set-up.
    let setup = cpu::thread_ns();
    let cluster = ClusterSpec::dawning3000_mesh(NODES)
        .with_seed(CLUSTER_SEED)
        .with_telemetry(TelemetryConfig {
            sample_period: SimDuration::from_ms(1),
            ..TelemetryConfig::default()
        })
        .with_profiling(rec.on())
        .build();
    layers.build_s += cpu::secs_since(setup);
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, NODES);
    let addrs: Arc<Mutex<Vec<Option<ProcAddr>>>> = Arc::new(Mutex::new(vec![None; NODES as usize]));
    let logs: Arc<Mutex<Vec<(u32, NodeLog)>>> = Arc::new(Mutex::new(Vec::new()));
    for x in 0..NODES {
        let (b, a, l, rec) = (barrier.clone(), addrs.clone(), logs.clone(), rec.clone());
        let t = cpu::thread_ns();
        cluster.spawn_process(x, "ring", move |ctx, env| {
            let port = env.open_port(ctx);
            a.lock().expect("addr lock")[x as usize] = Some(port.addr());
            let recv_bufs: Vec<_> = (0..WINDOW)
                .map(|c| port.post_recv(ctx, c, LARGE_BYTES).expect("post recv"))
                .collect();
            b.wait(ctx);
            let addrs: Vec<ProcAddr> = a
                .lock()
                .expect("addr lock")
                .iter()
                .map(|p| p.expect("neighbour up"))
                .collect();
            let mut n = Node {
                traps: format!("os.traps.n{x}"),
                port: &port,
                rec: &rec,
                log: NodeLog::default(),
            };
            small_phase(ctx, &mut n, x, seed, &addrs, &b);
            b.wait(ctx);
            large_phase(ctx, &mut n, x, seed, &recv_bufs, &addrs);
            b.wait(ctx);
            timed_large_phase(ctx, &mut n, x, seed, recv_bufs[0], &addrs, &b);
            l.lock().expect("log lock").push((x, n.log));
        });
        layers.spawn_ns += cpu::thread_ns() - t;
        layers.actors += 1;
    }
    layers.setups.push(cpu::secs_since(setup));

    let outcome = layers.run(&sim);

    rep.check("run_completed", outcome == RunOutcome::Completed, || {
        format!("seed {seed}: {outcome:?}")
    });
    let mut logs = std::mem::take(&mut *logs.lock().expect("log lock"));
    logs.sort_by_key(|(x, _)| *x);
    rep.check("all_nodes_finished", logs.len() == NODES as usize, || {
        format!("seed {seed}: {} of {NODES} nodes finished", logs.len())
    });
    let (mut misses, mut bad, mut delivered, mut late) = (0u64, 0u64, 0u64, 0u64);
    for (i, (_, log)) in logs.iter().enumerate() {
        // Node i's message m is node i + 1's m-th receipt.
        let (_, next) = &logs[(i + 1) % logs.len()];
        for (mine, theirs, lat) in [
            (&log.small, &next.small, &mut p.small),
            (&log.large, &next.large, &mut p.large),
        ] {
            for ((s, w), r) in mine.sent.iter().zip(&theirs.waiting).zip(&theirs.recv) {
                late += u64::from(w > s);
                lat.push(r.saturating_sub(*s));
            }
        }
        delivered += (log.small.recv.len() + log.large.recv.len()) as u64 + log.streamed;
        p.sends += log.sends;
        p.send_traps += log.send_traps;
        misses += log.trap_misses;
        bad += log.bad;
        layers.payload_bytes += log.payload_bytes;
        p.large_bytes += log.streamed * LARGE_BYTES;
        p.large_ns += log.large_end.saturating_sub(log.large_start);
    }
    p.nodes += logs.len() as u64;
    let expected = u64::from(NODES) * u64::from(SMALL_ROUNDS + LARGE_MSGS + LARGE_ROUNDS);
    p.expected += expected;
    p.bad += bad + expected.saturating_sub(delivered);
    rep.check(
        "ring_exactly_once_in_order",
        bad == 0 && delivered == expected,
        || format!("seed {seed}: {bad} bad deliveries, {delivered} of {expected} delivered"),
    );
    rep.check("receiver_waiting_before_send", late == 0, || {
        format!("seed {seed}: {late} timed receivers entered wait_recv after the send started")
    });
    rep.check("one_trap_per_send", misses == 0 && p.sends > 0, || {
        format!("seed {seed}: {misses} sends did not cost exactly one trap")
    });
    let snap = cluster.metrics_snapshot();
    rep.check(
        "zero_interrupts",
        snap.counter("os.interrupts") == 0,
        || format!("seed {seed}: {} interrupts", snap.counter("os.interrupts")),
    );
    let drops = snap.counter("fabric.dropped") + switch_drops(&snap);
    rep.check("zero_fabric_drops", drops == 0, || {
        format!("seed {seed}: {drops} packets dropped")
    });
    if rec.on() {
        layers.add_sim(&sim, &snap, &sim.prof_report());
    }
}

/// Run [`SIMS`] rings and the paper anchor runs, and report.
pub fn run(seed: u64, traced: bool) -> Report {
    let rec = Recorder::new(traced);
    let mut rep = Report::default();
    let mut layers = Layers::default();
    let mut p = Pooled::default();
    for k in 0..SIMS {
        simulate(
            crate::sub_seed(seed, k),
            &rec,
            &mut rep,
            &mut layers,
            &mut p,
        );
    }

    for (name, l) in [("oneway", &p.small), ("large", &p.large)] {
        rep.check(
            &format!("p99_samples.{name}"),
            supports(l.attempted(), 0.99),
            || format!("p99 rests on {} samples", l.attempted()),
        );
    }
    // Useful payload per node per virtual second of phase 2.
    let phase_s = p.large_ns as f64 / p.nodes.max(1) as f64 / 1e9;
    let ring_mb_s = p.large_bytes as f64 / p.nodes.max(1) as f64 / phase_s.max(1e-12) / 1e6;
    let (dev, lat0, peak, t128) = paper_deviation();
    rep.check("paper_anchors", dev <= ANCHOR_TOLERANCE_PCT, || {
        format!("largest deviation {dev:.2}% (latency {lat0:.2} us, peak {peak:.1} MB/s, 128 KiB {t128:.1} us)")
    });
    layers.host_metrics(&mut rep);

    let n = |l: &Latencies| Some(l.attempted() as u64);
    let q = |l: &Latencies, x: f64| l.quantile_us(x);
    rep.virt("oneway_p50_us", q(&p.small, 0.5), "us", n(&p.small));
    rep.virt("oneway_p99_us", q(&p.small, 0.99), "us", n(&p.small));
    rep.virt("large_p99_us", q(&p.large, 0.99), "us", n(&p.large));
    rep.virt("ring_mb_s", ring_mb_s, "MB/s", None);
    rep.virt("paper_dev_pct", dev, "%", None);
    rep.virt("p50_us", q(&p.small, 0.5), "us", n(&p.small));
    rep.virt("p99_us", q(&p.small, 0.99), "us", n(&p.small));
    rep.virt("guard_p99_us", q(&p.large, 0.99), "us", n(&p.large));
    rep.virt(
        "goodput_per_s",
        ring_mb_s * 1e6 / LARGE_BYTES as f64,
        "1/s",
        None,
    );
    let failed_frac = p.bad as f64 / p.expected.max(1) as f64;
    rep.virt("failed_frac", failed_frac, "ratio", None);
    rep.virt("served_frac", 1.0 - failed_frac, "ratio", None);
    rep.attempted = p.expected;
    rep.failed = p.bad;

    if traced {
        layers.emit(&mut rep);
        let spans = rec.spans();
        span_layers(&mut rep, &spans);
        rep.layer(
            "os.traps_per_send",
            p.send_traps as f64 / p.sends.max(1) as f64,
            "count",
        );
        rep.layer("model.paper_dev_pct", dev, "%");
        crate::write_spans(&spans, "bcl_ring", seed);
    }
    rep
}
