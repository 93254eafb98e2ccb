//! `tenant_mix` and `kv_rate`: the 32-node dual-rail Myrinet cluster of
//! the mixed-tenant scenario, 8 service nodes each running one
//! multi-tenant `RpcServer`, 24 client nodes driving it through
//! `RpcClient::{issue, pump}`.
//!
//! `tenant_mix` is a closed loop of all three tenants (KV high priority,
//! pub-sub and pipeline low). `pubsub_pipeline` is the same closed loop
//! without the KV tenant. `kv_rate` keeps KV alone and offers it an open
//! loop of Poisson arrivals over a fixed ladder of rates.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use suca_bcl::ProcAddr;
use suca_cluster::{Cluster, ClusterSpec, ProcessEnv, SanKind, SimBarrier};
use suca_load::kv::{enc_get, enc_put, enc_scan, scan_for, value_for};
use suca_load::{KvCosts, KvService, OP_GET, OP_PUT, OP_SCAN};
use suca_mesh::MeshConfig;
use suca_myrinet::MyrinetConfig;
use suca_pipeline::worker::{checksum, enc_exec, enc_fetch, output_for, OP_EXEC, OP_FETCH};
use suca_pipeline::{plan_stage, PipelineCosts, PipelineSpec, PipelineWorker};
use suca_pubsub::client::event_body;
use suca_pubsub::wire::{dec_event, dec_seq, enc_ack, enc_event, enc_subscribe};
use suca_pubsub::{PubSubCosts, PubSubService, RoomCfg, FLAG_EOF, FLAG_SHED};
use suca_pubsub::{OP_ACK, OP_PUBLISH, OP_SUBSCRIBE};
use suca_rpc::{
    Priority, RpcClient, RpcClientConfig, RpcCompletion, RpcReply, RpcServer, RpcServerConfig,
    RpcStatus, TenantId, TenantPolicy,
};
use suca_sim::{ActorCtx, HealthRule, RunOutcome, SimDuration, SimRng, SimTime};

use crate::cpu;
use crate::report::{span_layers, switch_drops, Layers, Report};
use crate::spans::{Recorder, ROOT};
use crate::stats::{
    backlog_growing, capacity_rung, percentile, supports, Interval, Latencies, Outcomes, Rung,
};

const NODES: u32 = 32;
const N_SERVERS: u32 = 8;
/// The cluster's own seed stays fixed; the workload seed shapes only the
/// generated inputs (keys, op mix, think times, arrival times).
const CLUSTER_SEED: u64 = 0x3_7E4A47;

const TENANT_KV: u8 = 0;
const TENANT_PUBSUB: u8 = 1;
const TENANT_PIPELINE: u8 = 2;

// tenant_mix layout: 10 KV + 4 publisher + 8 subscriber + 2 pipeline
// client nodes; pubsub_pipeline leaves the KV nodes idle.
const N_KV: usize = 10;
const N_PUB: usize = 4;
const N_SUB: usize = 8;
const N_PIPE: usize = 2;
const KV_USERS: u32 = 32;
const KV_OPS_PER_USER: u32 = 4;
/// Publisher `p` feeds room `p`, followed by subscribers `p` and `p + 4`.
const EVENTS_PER_ROOM: u64 = 40;
/// Subscribers return byte credit after this many bytes.
const ACK_BYTES: u64 = 4096;
const EVENT_BYTES: usize = 512;
const PIPE_JOBS: u32 = 4;

/// kv_rate: arrival generators (one per client node).
const N_GEN: usize = 24;
/// Offered rates, requests per virtual second: a light rung, the heavy
/// rung, then steps of about 10 % through capacity (400k to 440k at
/// seeds 1 and 2) to one rung past it.
pub const LADDER: [f64; 7] = [
    150_000.0, 300_000.0, 330_000.0, 365_000.0, 400_000.0, 440_000.0, 485_000.0,
];
/// Index of the light and the heavy rung.
const LIGHT: usize = 0;
const HEAVY: usize = 1;
/// Virtual length of one rung: long enough for the rung past capacity
/// to show a growing backlog.
const RUNG: SimDuration = SimDuration::from_ms(5);
/// Backlog checkpoints per rung.
const CHECKPOINTS: usize = 8;
/// The p99 limit behind `kv_capacity_ops_s`.
pub const LIMIT_US: f64 = 1_000.0;
/// A request that never completed counts at the client's longest wait
/// (two 5 ms attempts and a backoff) in reported percentiles.
const FAILED_AS_US: f64 = 10_100.0;

/// Which of the RPC workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All three tenants, closed loop.
    TenantMix,
    /// Pub-sub and pipeline, closed loop, no KV.
    Services,
    /// KV alone, open-loop rate ladder.
    KvRate,
}

/// What one client node does.
#[derive(Clone, Copy)]
enum Role {
    KvClosed,
    KvOpen,
    Publisher(u32),
    Subscriber(u32),
    Pipeline(u32),
}

/// The role of client node `c`, or `None` if it stays idle.
fn role(kind: Kind, c: usize) -> Option<Role> {
    let c = match kind {
        Kind::KvRate => return Some(Role::KvOpen),
        Kind::TenantMix if c < N_KV => return Some(Role::KvClosed),
        Kind::TenantMix | Kind::Services if c < N_KV => return None,
        Kind::TenantMix | Kind::Services => c - N_KV,
    };
    if c < N_PUB {
        Some(Role::Publisher(c as u32))
    } else if c < N_PUB + N_SUB {
        Some(Role::Subscriber(((c - N_PUB) % N_PUB) as u32))
    } else if c < N_PUB + N_SUB + N_PIPE {
        Some(Role::Pipeline((c - N_PUB - N_SUB) as u32))
    } else {
        None
    }
}

impl Role {
    fn tenant(self) -> (u8, Priority) {
        match self {
            Role::KvClosed | Role::KvOpen => (TENANT_KV, Priority::High),
            Role::Publisher(_) | Role::Subscriber(_) => (TENANT_PUBSUB, Priority::Low),
            Role::Pipeline(_) => (TENANT_PIPELINE, Priority::Low),
        }
    }
}

/// What the client actors hand back.
#[derive(Default)]
struct Results {
    kv: Latencies,
    kv_out: Outcomes,
    /// Every pub-sub request.
    pubsub: Latencies,
    /// Publishes alone.
    publish: Latencies,
    pubsub_out: Outcomes,
    pipeline: Latencies,
    pipe_out: Outcomes,
    exec: Latencies,
    fetch: Latencies,
    /// Subscriber stream checks.
    events_received: u64,
    events_expected: u64,
    gaps: u64,
    bad_events: u64,
    subs_shed: u64,
    /// Issues and the kernel traps they cost on the client node.
    issues: u64,
    issue_traps: u64,
    issue_trap_misses: u64,
    payload_bytes: u64,
    /// Virtual instants load started and the last client finished.
    start_ns: u64,
    end_ns: u64,
    rungs: Vec<Rung>,
    gen_late_ns: Vec<u64>,
}

type Shared = Arc<Mutex<Results>>;

fn lock(s: &Shared) -> std::sync::MutexGuard<'_, Results> {
    s.lock().expect("results lock poisoned")
}

/// Per-tenant burn-rate rules of the mixed-tenant scenario: the 10 µs
/// telemetry tick evaluates them, which is part of the cost measured.
fn health_rules() -> Vec<HealthRule> {
    [TENANT_KV, TENANT_PUBSUB, TENANT_PIPELINE]
        .into_iter()
        .map(|t| {
            HealthRule::burn_rate(format!("t{t}.err_burn"), None, 10_000, 10, 50, 200, 10)
                .for_tenant(t)
                .with_lifecycle(2, 15)
        })
        .collect()
}

fn spec(profile: bool) -> ClusterSpec {
    ClusterSpec::dawning3000(NODES)
        .with_san(SanKind::Myrinet(MyrinetConfig::dawning3000()))
        .with_second_san(SanKind::Mesh(MeshConfig::dawning3000()))
        .with_seed(CLUSTER_SEED)
        .with_health(health_rules())
        .with_profiling(profile)
}

fn client_cfg(tenant: u8, priority: Priority) -> RpcClientConfig {
    RpcClientConfig {
        timeout: SimDuration::from_ms(5),
        max_attempts: 2,
        backoff: SimDuration::from_us(100),
        arena_slots: if tenant == TENANT_PUBSUB { 16 } else { 64 },
        slot_bytes: 16 * 1024,
        tenant: TenantId(tenant),
        priority,
    }
}

fn server_cfg() -> RpcServerConfig {
    RpcServerConfig {
        queue_cap: 128,
        idle_timeout: SimDuration::from_ms(5),
        tenants: vec![
            TenantPolicy::new(TENANT_KV, 64, Priority::High),
            TenantPolicy::new(TENANT_PUBSUB, 8, Priority::Low),
            TenantPolicy::new(TENANT_PIPELINE, 32, Priority::Low),
        ],
        ..RpcServerConfig::default()
    }
}

/// A client's view of the stack: the calls the benchmark times.
struct Cli {
    rpc: RpcClient,
    rec: Recorder,
    traps: String,
    results: Shared,
    issues: u64,
    issue_traps: u64,
    trap_misses: u64,
}

impl Cli {
    fn new(rpc: RpcClient, rec: Recorder, results: Shared) -> Cli {
        let node = rpc.addr().node.0;
        Cli {
            rpc,
            rec,
            traps: format!("os.traps.n{node}"),
            results,
            issues: 0,
            issue_traps: 0,
            trap_misses: 0,
        }
    }

    /// `RpcClient::issue` with its span and its trap count.
    fn issue(
        &mut self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        op: u8,
        payload: &[u8],
        token: u64,
        parent: u32,
    ) -> bool {
        let before = ctx.sim().get_count(&self.traps);
        let sp = self.rec.begin(ctx, "rpc.issue", token, parent);
        let ok = self.rpc.issue(ctx, dst, op, payload, token).is_ok();
        self.rec.end(ctx, sp);
        if ok {
            let traps = ctx.sim().get_count(&self.traps) - before;
            self.issues += 1;
            self.issue_traps += traps;
            self.trap_misses += u64::from(traps != 1);
        }
        ok
    }

    /// `RpcClient::pump` with its span.
    fn pump(&mut self, ctx: &mut ActorCtx, wait: SimDuration) -> Vec<RpcCompletion> {
        let sp = self.rec.begin(ctx, "rpc.pump", 0, ROOT);
        let out = self.rpc.pump(ctx, wait);
        self.rec.end(ctx, sp);
        out
    }

    /// `RpcClient::advance` (non-blocking pump) with its span.
    fn advance(&mut self, ctx: &mut ActorCtx) -> Vec<RpcCompletion> {
        let sp = self.rec.begin(ctx, "rpc.pump", 0, ROOT);
        let out = self.rpc.advance(ctx);
        self.rec.end(ctx, sp);
        out
    }

    /// Issue one request and pump until it resolves; `name` names its
    /// root span.
    fn call(
        &mut self,
        ctx: &mut ActorCtx,
        name: &'static str,
        dst: ProcAddr,
        op: u8,
        payload: &[u8],
        token: u64,
    ) -> Option<RpcCompletion> {
        let root = self.rec.reserve_id();
        let t0 = ctx.now().as_ns();
        if !self.issue(ctx, dst, op, payload, token, root) {
            return None;
        }
        loop {
            for c in self.pump(ctx, SimDuration::from_ms(1)) {
                if c.token == token {
                    self.root(root, token, t0, ctx.now().as_ns(), name);
                    return Some(c);
                }
            }
        }
    }

    fn root(&self, id: u32, req: u64, start: u64, end: u64, name: &'static str) {
        self.rec
            .record_virtual(name, req, id, Interval { start, end });
    }

    fn finish(mut self, ctx: &mut ActorCtx) {
        self.rpc.quiesce(ctx, SimDuration::from_us(500));
        let mut r = lock(&self.results);
        r.issues += self.issues;
        r.issue_traps += self.issue_traps;
        r.issue_trap_misses += self.trap_misses;
        r.end_ns = r.end_ns.max(ctx.now().as_ns());
    }
}

/// Fold one completion into a tenant's latencies and outcomes.
/// `verified` says whether an Ok payload passed its byte check; `ns` is
/// the request's latency.
fn absorb(c: &RpcCompletion, verified: bool, ns: u64, lat: &mut Latencies, out: &mut Outcomes) {
    match c.status {
        RpcStatus::Ok if verified => lat.push(ns),
        RpcStatus::Ok => {
            out.bad_payload += 1;
            lat.fail();
        }
        RpcStatus::Shed => {
            out.shed += 1;
            lat.fail();
        }
        RpcStatus::TimedOut | RpcStatus::DeadDestination => {
            out.timed_out += 1;
            lat.fail();
        }
    }
}

/// Draw one KV op for `user`: (op class, key, request payload).
fn kv_op(rng: &mut SimRng, user: u64) -> (u8, u64, Vec<u8>) {
    let key = user * 64 + rng.below(64);
    let r = rng.unit_f64();
    if r < 0.05 {
        (OP_SCAN, key, enc_scan(key))
    } else if r < 0.30 {
        (OP_PUT, key, enc_put(key, &value_for(key)))
    } else {
        (OP_GET, key, enc_get(key))
    }
}

/// Byte check of a KV response: GET returns the key's value (a PUT only
/// ever stores that same value), PUT echoes the key, SCAN returns the
/// key's scan body.
fn kv_ok(op: u8, key: u64, payload: &[u8]) -> bool {
    match op {
        OP_GET => payload == value_for(key).as_slice(),
        OP_PUT => payload == key.to_le_bytes(),
        OP_SCAN => payload == scan_for(key).as_slice(),
        _ => false,
    }
}

fn kv_shard(servers: &[ProcAddr], key: u64) -> ProcAddr {
    servers[(key % servers.len() as u64) as usize]
}

/// Closed-loop KV users multiplexed over one client.
fn kv_closed(ctx: &mut ActorCtx, cli: &mut Cli, servers: &[ProcAddr], rng: &mut SimRng, base: u64) {
    struct User {
        ready_at: SimTime,
        done: u32,
        req: Option<(u8, u64, u64, u32)>, // op, key, issued ns, root span
    }
    let think = |rng: &mut SimRng| SimDuration::from_ns(rng.range(1_000_000, 3_000_000));
    let start = ctx.now();
    let mut users: Vec<User> = (0..KV_USERS)
        .map(|_| User {
            ready_at: start + think(rng),
            done: 0,
            req: None,
        })
        .collect();
    let mut lat = Latencies::default();
    let mut out = Outcomes::default();
    let mut bytes = 0u64;
    let mut next_token = base << 32;
    let mut token_user: HashMap<u64, usize> = HashMap::new();
    loop {
        let now = ctx.now();
        for (i, u) in users.iter_mut().enumerate() {
            if u.req.is_some() || u.done >= KV_OPS_PER_USER || u.ready_at > now {
                continue;
            }
            if !cli.rpc.can_issue() {
                break;
            }
            let (op, key, payload) = kv_op(rng, base + i as u64);
            next_token += 1;
            let root = cli.rec.reserve_id();
            out.attempted += 1;
            if cli.issue(ctx, kv_shard(servers, key), op, &payload, next_token, root) {
                u.req = Some((op, key, now.as_ns(), root));
                token_user.insert(next_token, i);
                bytes += payload.len() as u64;
            } else {
                out.client_shed += 1;
                lat.fail();
                u.done += 1;
                u.ready_at = now + think(rng);
            }
        }
        let busy = users.iter().any(|u| u.req.is_some());
        if !busy && users.iter().all(|u| u.done >= KV_OPS_PER_USER) {
            break;
        }
        let next_ready = users
            .iter()
            .filter(|u| u.req.is_none() && u.done < KV_OPS_PER_USER)
            .map(|u| u.ready_at)
            .min();
        let now = ctx.now();
        let wait = match next_ready {
            Some(t) if cli.rpc.can_issue() => t.since(now).max(SimDuration::from_ns(1)),
            _ => SimDuration::from_us(500),
        };
        let comps = cli.pump(ctx, wait.min(SimDuration::from_us(500)));
        let now = ctx.now();
        for c in comps {
            let Some(i) = token_user.remove(&c.token) else {
                continue;
            };
            let u = &mut users[i];
            let (op, key, issued, root) = u.req.take().expect("completion for an idle user");
            let ok = kv_ok(op, key, &c.payload);
            if ok {
                bytes += c.payload.len() as u64;
            }
            absorb(&c, ok, c.latency.as_ns(), &mut lat, &mut out);
            cli.root(root, c.token, issued, now.as_ns(), "req.kv");
            u.done += 1;
            u.ready_at = now + think(rng);
        }
    }
    let mut r = lock(&cli.results);
    r.kv.merge(&lat);
    r.kv_out.merge(&out);
    r.payload_bytes += bytes;
}

/// One publisher feeding its room: think, publish, wait for the
/// acknowledgement, repeat.
fn publisher(ctx: &mut ActorCtx, cli: &mut Cli, servers: &[ProcAddr], rng: &mut SimRng, room: u32) {
    let home = servers[(room % N_SERVERS) as usize];
    let mut lat = Latencies::default();
    let mut out = Outcomes::default();
    let mut bytes = 0u64;
    for i in 0..EVENTS_PER_ROOM {
        ctx.sleep(SimDuration::from_ns(rng.range(50_000, 200_000)));
        let flags = if i + 1 == EVENTS_PER_ROOM {
            FLAG_EOF
        } else {
            0
        };
        let payload = enc_event(room, flags, &event_body(room, i, EVENT_BYTES));
        out.attempted += 1;
        let Some(c) = cli.call(ctx, "req.publish", home, OP_PUBLISH, &payload, i + 1) else {
            out.client_shed += 1;
            lat.fail();
            continue;
        };
        bytes += EVENT_BYTES as u64;
        // A publish is acknowledged with the event's log sequence number:
        // one publisher per room makes it the event index.
        absorb(
            &c,
            dec_seq(&c.payload) == Some(i),
            c.latency.as_ns(),
            &mut lat,
            &mut out,
        );
    }
    let mut r = lock(&cli.results);
    r.pubsub.merge(&lat);
    r.publish.merge(&lat);
    r.pubsub_out.merge(&out);
    r.payload_bytes += bytes;
}

/// One subscriber following its room from sequence 0: every event must
/// arrive once, in order, with the publisher's exact body. Byte credit
/// goes back to the room every [`ACK_BYTES`].
fn subscriber(ctx: &mut ActorCtx, cli: &mut Cli, servers: &[ProcAddr], room: u32) {
    let home = servers[(room % N_SERVERS) as usize];
    let mut lat = Latencies::default();
    let mut out = Outcomes::default();
    let (mut received, mut gaps, mut bad, mut shed, mut bytes) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut expected, mut unacked, mut eof) = (0u64, 0u64, false);
    let mut token = 1u64;
    out.attempted += 1;
    match cli.call(
        ctx,
        "req.subscribe",
        home,
        OP_SUBSCRIBE,
        &enc_subscribe(room, 0),
        token,
    ) {
        Some(c) => absorb(
            &c,
            dec_seq(&c.payload) == Some(0),
            c.latency.as_ns(),
            &mut lat,
            &mut out,
        ),
        None => {
            out.client_shed += 1;
            lat.fail();
        }
    }
    let deadline = ctx.now() + SimDuration::from_ms(400);
    let mut acks: HashMap<u64, (u64, u32)> = HashMap::new();
    while (!eof || !acks.is_empty()) && ctx.now() < deadline {
        let comps = cli.pump(ctx, SimDuration::from_us(200));
        let now = ctx.now().as_ns();
        for c in comps {
            if let Some((t0, root)) = acks.remove(&c.token) {
                absorb(&c, true, c.latency.as_ns(), &mut lat, &mut out);
                cli.root(root, c.token, t0, now, "req.ack");
            }
        }
        for ev in cli.rpc.take_pushes() {
            let Some((from, flags, data)) = dec_event(&ev.payload) else {
                bad += 1;
                continue;
            };
            if flags & FLAG_SHED != 0 {
                shed += 1;
                continue;
            }
            if ev.seq != expected {
                gaps += 1;
            }
            expected = ev.seq + 1;
            received += 1;
            bytes += data.len() as u64;
            if from != room || data != event_body(room, ev.seq, EVENT_BYTES).as_slice() {
                bad += 1;
            }
            unacked += data.len() as u64 + 1;
            eof |= flags & FLAG_EOF != 0;
        }
        if unacked >= ACK_BYTES && cli.rpc.can_issue() {
            token += 1;
            let root = cli.rec.reserve_id();
            out.attempted += 1;
            let t0 = ctx.now().as_ns();
            let ack = enc_ack(room, unacked as u32);
            if cli.issue(ctx, home, OP_ACK, &ack, token, root) {
                acks.insert(token, (t0, root));
                unacked = 0;
            } else {
                out.client_shed += 1;
                lat.fail();
            }
        }
    }
    let mut r = lock(&cli.results);
    r.pubsub.merge(&lat);
    r.pubsub_out.merge(&out);
    r.events_received += received;
    r.events_expected += EVENTS_PER_ROOM;
    r.gaps += gaps;
    r.bad_events += bad;
    r.subs_shed += shed;
    r.payload_bytes += bytes;
}

/// One pipeline driver: plan, then per stage fan EXEC out to the group
/// workers, then FETCH the last stage's outputs; every reply verified.
fn pipeline(ctx: &mut ActorCtx, cli: &mut Cli, servers: &[ProcAddr], d: u32) {
    let spec = PipelineSpec::default();
    let input = vec![0x50u8; spec.input_bytes];
    let mut lat = Latencies::default();
    let mut exec = Latencies::default();
    let mut fetch = Latencies::default();
    let mut out = Outcomes::default();
    let mut bytes = 0u64;
    for job in 0..PIPE_JOBS {
        let job_id = d * 1000 + job;
        ctx.sleep(SimDuration::from_us(5));
        for s in 0..=spec.stages {
            // Stages 0..stages execute; the extra pass fetches outputs.
            let fetching = s == spec.stages;
            let stage = s.min(spec.stages - 1);
            if !fetching {
                ctx.sleep(SimDuration::from_us(2));
            }
            let mut queue: Vec<(usize, u32)> = plan_stage(job_id, stage, spec.tasks, servers.len())
                .iter()
                .flat_map(|g| g.tasks.iter().map(move |&t| (g.worker, t)))
                .collect();
            queue.reverse();
            let mut inflight: HashMap<u64, (u32, u64, u32)> = HashMap::new();
            while !queue.is_empty() || !inflight.is_empty() {
                while cli.rpc.can_issue() {
                    let Some((w, t)) = queue.pop() else { break };
                    let (op, payload) = if fetching {
                        (OP_FETCH, enc_fetch(job_id, stage, t))
                    } else {
                        (OP_EXEC, enc_exec(job_id, stage, t, &input))
                    };
                    let token = (u64::from(job_id) << 32) | (u64::from(s) << 16) | u64::from(t);
                    let root = cli.rec.reserve_id();
                    out.attempted += 1;
                    let t0 = ctx.now().as_ns();
                    if cli.issue(ctx, servers[w], op, &payload, token, root) {
                        inflight.insert(token, (t, t0, root));
                        bytes += payload.len() as u64;
                    } else {
                        out.client_shed += 1;
                        lat.fail();
                    }
                }
                let comps = cli.pump(ctx, SimDuration::from_us(200));
                let now = ctx.now().as_ns();
                for c in comps {
                    let Some((t, t0, root)) = inflight.remove(&c.token) else {
                        continue;
                    };
                    let want = output_for(job_id, stage, t, spec.output_bytes);
                    let ok = if fetching {
                        c.payload == want
                    } else {
                        c.payload.len() == 8 && c.payload[..8] == checksum(&want).to_le_bytes()
                    };
                    if ok {
                        bytes += c.payload.len() as u64;
                    }
                    absorb(&c, ok, c.latency.as_ns(), &mut lat, &mut out);
                    if c.status == RpcStatus::Ok && ok {
                        let l = if fetching { &mut fetch } else { &mut exec };
                        l.push(c.latency.as_ns());
                    }
                    let name = if fetching { "req.fetch" } else { "req.exec" };
                    cli.root(root, c.token, t0, now, name);
                }
            }
        }
        ctx.sleep(SimDuration::from_us(50));
    }
    let mut r = lock(&cli.results);
    r.pipeline.merge(&lat);
    r.exec.merge(&exec);
    r.fetch.merge(&fetch);
    r.pipe_out.merge(&out);
    r.payload_bytes += bytes;
}

/// One open-loop generator over the rate ladder. Each request is timed
/// from its scheduled arrival, so a stalled generator's lateness lands in
/// the latencies of the arrivals it delayed.
fn kv_open(
    ctx: &mut ActorCtx,
    cli: &mut Cli,
    servers: &[ProcAddr],
    rng: &mut SimRng,
    g: u64,
    barrier: &SimBarrier,
) {
    let mut mine = Results::default();
    let mut token = g << 40;
    for &rate in &LADDER {
        barrier.wait(ctx);
        let mean_ns = N_GEN as f64 / rate * 1e9;
        let gap = |rng: &mut SimRng| {
            let u = rng.unit_f64();
            SimDuration::from_ns(((-(1.0 - u).ln()) * mean_ns).round().max(1.0) as u64)
        };
        let start = ctx.now();
        let stop = start + RUNG;
        let checkpoint =
            |k: usize| start + SimDuration::from_ns(RUNG.as_ns() * k as u64 / CHECKPOINTS as u64);
        let mut cp = 0usize;
        let mut backlog = vec![0u64; CHECKPOINTS];
        let mut next = start + gap(rng);
        let mut lat = Latencies::default();
        let mut pending: HashMap<u64, (u8, u64, u64, u32)> = HashMap::new();
        // Arrivals until `stop`, then drain what is in flight.
        loop {
            let now = ctx.now();
            while cp < CHECKPOINTS && now >= checkpoint(cp) {
                backlog[cp] = cli.rpc.in_flight() as u64;
                cp += 1;
            }
            if now >= stop && pending.is_empty() {
                break;
            }
            let comps = if next <= now && now < stop {
                let due = next.as_ns();
                next += gap(rng);
                mine.gen_late_ns.push(now.as_ns() - due);
                let user = g * 64 + rng.below(64);
                let (op, key, payload) = kv_op(rng, user);
                token += 1;
                mine.kv_out.attempted += 1;
                let root = cli.rec.reserve_id();
                let dst = kv_shard(servers, key);
                if cli.rpc.can_issue() && cli.issue(ctx, dst, op, &payload, token, root) {
                    pending.insert(token, (op, key, due, root));
                    mine.payload_bytes += payload.len() as u64;
                } else {
                    mine.kv_out.client_shed += 1;
                    lat.fail();
                }
                cli.advance(ctx)
            } else {
                let until = if now < stop {
                    let at = if cp < CHECKPOINTS {
                        checkpoint(cp)
                    } else {
                        stop
                    };
                    next.min(stop).min(at)
                } else {
                    now + SimDuration::from_us(500)
                };
                cli.pump(ctx, until.since(now).max(SimDuration::from_ns(1)))
            };
            let now = ctx.now().as_ns();
            for c in comps {
                let Some((op, key, due, root)) = pending.remove(&c.token) else {
                    continue;
                };
                let ok = kv_ok(op, key, &c.payload);
                if ok {
                    mine.payload_bytes += c.payload.len() as u64;
                }
                absorb(&c, ok, now - due, &mut lat, &mut mine.kv_out);
                cli.root(root, c.token, due, now, "req.kv");
            }
        }
        mine.rungs.push(Rung { rate, lat, backlog });
    }
    lock(&cli.results).merge(&mine);
}

/// Simulations per run, each on its own seed derived from the run's
/// seed; virtual-time metrics pool their samples. A simulation completes
/// 160 publishes, so eight put 1,280 under the publish p99; `tenant_mix`
/// pools twelve because its KV closed loop spreads the low-priority
/// tenants' tails further. `kv_rate`'s light rung offers 750 requests per
/// simulation, so two put 1,500 under its p99.
fn sims(kind: Kind) -> u64 {
    match kind {
        Kind::TenantMix => 12,
        Kind::Services => 8,
        Kind::KvRate => 2,
    }
}

impl Results {
    /// Fold another simulation's tallies in.
    fn merge(&mut self, o: &Results) {
        self.kv.merge(&o.kv);
        self.kv_out.merge(&o.kv_out);
        self.pubsub.merge(&o.pubsub);
        self.publish.merge(&o.publish);
        self.pubsub_out.merge(&o.pubsub_out);
        self.pipeline.merge(&o.pipeline);
        self.pipe_out.merge(&o.pipe_out);
        self.exec.merge(&o.exec);
        self.fetch.merge(&o.fetch);
        self.events_received += o.events_received;
        self.events_expected += o.events_expected;
        self.gaps += o.gaps;
        self.bad_events += o.bad_events;
        self.subs_shed += o.subs_shed;
        self.issues += o.issues;
        self.issue_traps += o.issue_traps;
        self.issue_trap_misses += o.issue_trap_misses;
        self.payload_bytes += o.payload_bytes;
        // Pooled, `end_ns - start_ns` is the summed load span.
        self.end_ns += o.end_ns.saturating_sub(o.start_ns);
        if self.rungs.is_empty() {
            self.rungs = o.rungs.clone();
        } else {
            for (dst, src) in self.rungs.iter_mut().zip(&o.rungs) {
                dst.lat.merge(&src.lat);
                for (a, b) in dst.backlog.iter_mut().zip(&src.backlog) {
                    *a += b;
                }
            }
        }
        self.gen_late_ns.extend_from_slice(&o.gen_late_ns);
    }
}

/// `Cluster::spawn_process`, timed.
fn spawn(
    cluster: &Cluster,
    layers: &mut Layers,
    node: u32,
    name: &str,
    body: impl FnOnce(&mut ActorCtx, ProcessEnv) + Send + 'static,
) {
    let t = cpu::thread_ns();
    cluster.spawn_process(node, name, body);
    layers.spawn_ns += cpu::thread_ns() - t;
    layers.actors += 1;
}

/// Build one cluster, spawn servers and clients, run it, and check what
/// it did. Returns the clients' tallies.
fn simulate(
    kind: Kind,
    seed: u64,
    rec: &Recorder,
    rep: &mut Report,
    layers: &mut Layers,
) -> Results {
    let results: Shared = Arc::new(Mutex::new(Results::default()));
    let traced = rec.on();
    // Set-up is timed on this thread's CPU clock: the threads of the
    // previous simulation are still exiting on the same CPU, and wall time
    // would charge their teardown to this set-up.
    let setup = cpu::thread_ns();
    let cluster = spec(traced).build();
    layers.build_s += cpu::secs_since(setup);
    let sim = cluster.sim.clone();
    let servers: Vec<u32> = (0..N_SERVERS).map(|s| s * NODES / N_SERVERS).collect();
    let client_nodes: Vec<u32> = (0..NODES).filter(|n| !servers.contains(n)).collect();
    let active = (0..client_nodes.len())
        .filter(|&c| role(kind, c).is_some())
        .count();
    let barrier = SimBarrier::new(&sim, N_SERVERS + active as u32);
    let gen_barrier = SimBarrier::new(&sim, N_GEN as u32);
    let addrs: Arc<Mutex<Vec<Option<ProcAddr>>>> = Arc::new(Mutex::new(vec![None; servers.len()]));

    for (s, &node) in servers.iter().enumerate() {
        let (b, a, rec) = (barrier.clone(), addrs.clone(), rec.clone());
        spawn(&cluster, layers, node, "srv", move |ctx, env| {
            let port = env.open_port(ctx);
            a.lock().expect("addr lock")[s] = Some(port.addr());
            let mut srv = RpcServer::new(ctx, port, server_cfg()).expect("server up");
            let m = ctx.sim().metrics();
            let mut kv = KvService::new(KvCosts::default());
            let room_cfg = RoomCfg {
                init_window: 16 * 1024,
                ..RoomCfg::default()
            };
            let mut ps = PubSubService::new(&m, node, room_cfg, PubSubCosts::default());
            let mut pw = PipelineWorker::new(&m, 6 * 1024, PipelineCosts::default());
            b.wait(ctx);
            srv.serve_tenants_until_idle(ctx, &mut |ctx: &mut ActorCtx, req| {
                let name = match req.tenant.0 {
                    TENANT_KV => "rpc.handler.kv",
                    TENANT_PUBSUB => "rpc.handler.pubsub",
                    _ => "rpc.handler.pipeline",
                };
                let sp = rec.begin(ctx, name, 0, ROOT);
                let reply = match req.tenant.0 {
                    TENANT_KV => RpcReply::inline(kv.handle(ctx, req.op_class, req.payload)),
                    TENANT_PUBSUB => ps.handle(ctx, req),
                    _ => pw.handle(ctx, req),
                };
                rec.end(ctx, sp);
                reply
            });
        });
    }

    for (c, &node) in client_nodes.iter().enumerate() {
        let Some(role) = role(kind, c) else {
            continue;
        };
        let (b, a, rec, res) = (barrier.clone(), addrs.clone(), rec.clone(), results.clone());
        let gb = gen_barrier.clone();
        let (tenant, prio) = role.tenant();
        spawn(&cluster, layers, node, "client", move |ctx, env| {
            let port = env.open_port(ctx);
            let rpc = RpcClient::new(ctx, port, client_cfg(tenant, prio)).expect("client up");
            let mut cli = Cli::new(rpc, rec, res.clone());
            b.wait(ctx);
            {
                let mut r = lock(&res);
                if r.start_ns == 0 {
                    r.start_ns = ctx.now().as_ns();
                }
            }
            let servers: Vec<ProcAddr> = a
                .lock()
                .expect("addr lock")
                .iter()
                .map(|x| x.expect("server ready"))
                .collect();
            let mut rng = SimRng::fork(seed, &format!("client{c}"));
            match role {
                Role::KvOpen => kv_open(ctx, &mut cli, &servers, &mut rng, c as u64, &gb),
                Role::KvClosed => kv_closed(
                    ctx,
                    &mut cli,
                    &servers,
                    &mut rng,
                    c as u64 * u64::from(KV_USERS),
                ),
                Role::Publisher(room) => publisher(ctx, &mut cli, &servers, &mut rng, room),
                Role::Subscriber(room) => subscriber(ctx, &mut cli, &servers, room),
                Role::Pipeline(d) => pipeline(ctx, &mut cli, &servers, d),
            }
            cli.finish(ctx);
        });
    }
    layers.setups.push(cpu::secs_since(setup));

    let outcome = layers.run(&sim);

    let r = std::mem::take(&mut *lock(&results));
    let snap = cluster.metrics_snapshot();
    rep.check("run_completed", outcome == RunOutcome::Completed, || {
        format!("seed {seed}: {outcome:?}")
    });
    // Every request resolved exactly once, per tenant.
    let tenants = [
        ("kv", &r.kv, &r.kv_out),
        ("pubsub", &r.pubsub, &r.pubsub_out),
        ("pipeline", &r.pipeline, &r.pipe_out),
    ];
    for (name, lat, o) in tenants {
        let present = match kind {
            Kind::TenantMix => true,
            Kind::Services => name != "kv",
            Kind::KvRate => name == "kv",
        };
        if !present {
            continue;
        }
        let resolved = if kind == Kind::KvRate {
            r.rungs
                .iter()
                .map(|g| g.lat.attempted() as u64)
                .sum::<u64>()
        } else {
            lat.attempted() as u64
        };
        rep.check(
            &format!("accounting.{name}"),
            resolved == o.attempted && o.attempted > 0,
            || {
                format!(
                    "seed {seed}: {} attempted, {resolved} resolved",
                    o.attempted
                )
            },
        );
    }
    let issued = snap.counter("rpc.cli_issued");
    let ended = snap.counter("rpc.cli_completed")
        + snap.counter("rpc.cli_shed")
        + snap.counter("rpc.cli_timeout");
    rep.check("accounting.rpc_counters", issued == ended, || {
        format!("seed {seed}: rpc.cli_issued {issued} != completed + shed + timed out {ended}")
    });
    let bad = r.kv_out.bad_payload + r.pubsub_out.bad_payload + r.pipe_out.bad_payload;
    rep.check("payload_verified", bad == 0, || {
        format!("seed {seed}: {bad} responses failed byte verification")
    });
    rep.check(
        "one_trap_per_send",
        r.issue_trap_misses == 0 && r.issues > 0,
        || {
            format!(
                "seed {seed}: {} of {} issues did not cost exactly one trap",
                r.issue_trap_misses, r.issues
            )
        },
    );
    rep.check(
        "zero_interrupts",
        snap.counter("os.interrupts") == 0,
        || format!("seed {seed}: {} interrupts", snap.counter("os.interrupts")),
    );
    let drops = snap.counter("fabric.dropped") + switch_drops(&snap);
    rep.check("zero_fabric_drops", drops == 0, || {
        format!("seed {seed}: {drops} packets dropped")
    });
    if kind != Kind::KvRate {
        rep.check(
            "pubsub_replay_gap_free",
            r.gaps == 0 && r.subs_shed == 0,
            || format!("seed {seed}: {} gaps, {} shed notices", r.gaps, r.subs_shed),
        );
        rep.check(
            "pubsub_replay_complete",
            r.events_received == r.events_expected && r.bad_events == 0,
            || {
                format!(
                    "seed {seed}: {} of {} events, {} bad bodies",
                    r.events_received, r.events_expected, r.bad_events
                )
            },
        );
    }
    if traced {
        layers.add_sim(&sim, &snap, &sim.prof_report());
        layers.payload_bytes += r.payload_bytes;
    }
    r
}

/// Run [`sims`] simulations of the workload and report pooled metrics.
pub fn run(kind: Kind, seed: u64, traced: bool) -> Report {
    let rec = Recorder::new(traced);
    let mut rep = Report::default();
    let mut layers = Layers::default();
    let mut r = Results::default();
    for k in 0..sims(kind) {
        let one = simulate(kind, crate::sub_seed(seed, k), &rec, &mut rep, &mut layers);
        r.merge(&one);
    }
    layers.host_metrics(&mut rep);

    let mut out = r.kv_out;
    out.merge(&r.pubsub_out);
    out.merge(&r.pipe_out);
    let q = |l: &Latencies, p: f64| l.quantile_capped_us(p, FAILED_AS_US);
    let n = |l: &Latencies| Some(l.attempted() as u64);
    let p99_rests = |rep: &mut Report, name: &str, l: &Latencies| {
        rep.check(
            &format!("p99_samples.{name}"),
            supports(l.attempted(), 0.99),
            || format!("p99 rests on {} samples", l.attempted()),
        );
    };
    // The rung past capacity exists to find capacity; on `kv_rate` the
    // served share covers the rungs the service is rated for.
    let served = match kind {
        Kind::TenantMix | Kind::Services => {
            // Pub-sub percentiles are of publishes: subscribes and credit
            // acks have their own latency distribution, and a percentile
            // of the mixture falls where the two meet and swings from
            // seed to seed.
            for (name, l) in [("publish", &r.publish), ("pipeline", &r.pipeline)] {
                p99_rests(&mut rep, name, l);
            }
            rep.virt("pubsub_p50_us", q(&r.publish, 0.5), "us", n(&r.publish));
            rep.virt("pubsub_p99_us", q(&r.publish, 0.99), "us", n(&r.publish));
            rep.virt("pubsub_all_p99_us", q(&r.pubsub, 0.99), "us", n(&r.pubsub));
            rep.virt(
                "pipeline_p99_us",
                q(&r.pipeline, 0.99),
                "us",
                n(&r.pipeline),
            );
            if kind == Kind::TenantMix {
                p99_rests(&mut rep, "kv", &r.kv);
                rep.virt("kv_p50_us", q(&r.kv, 0.5), "us", n(&r.kv));
                rep.virt("kv_p99_us", q(&r.kv, 0.99), "us", n(&r.kv));
                rep.virt("p50_us", q(&r.kv, 0.5), "us", n(&r.kv));
                rep.virt("p99_us", q(&r.kv, 0.99), "us", n(&r.kv));
                let guard = q(&r.publish, 0.99).max(q(&r.pipeline, 0.99));
                let gn = r.publish.attempted().min(r.pipeline.attempted()) as u64;
                rep.virt("guard_p99_us", guard, "us", Some(gn));
            } else {
                rep.virt("p50_us", q(&r.publish, 0.5), "us", n(&r.publish));
                rep.virt("p99_us", q(&r.publish, 0.99), "us", n(&r.publish));
                rep.virt("guard_p99_us", q(&r.pipeline, 0.99), "us", n(&r.pipeline));
            }
            let completed = r.kv.completed() + r.pubsub.completed() + r.pipeline.completed();
            let span_s = r.end_ns.max(1) as f64 / 1e9;
            rep.virt("goodput_per_s", completed as f64 / span_s, "1/s", None);
            1.0 - out.failed_frac()
        }
        Kind::KvRate => {
            let (light, heavy) = (&r.rungs[LIGHT].lat, &r.rungs[HEAVY].lat);
            let cap = capacity_rung(&r.rungs, 0.99, LIMIT_US, N_GEN as u64 * sims(kind));
            rep.check("light_rung_meets_limit", cap.is_some(), || {
                format!("light rung p99 {:.1} us", light.quantile_us(0.99))
            });
            rep.check(
                "ladder_ends_past_capacity",
                cap.is_some_and(|c| c + 1 < LADDER.len()),
                || format!("capacity rung {cap:?} of {}", LADDER.len()),
            );
            p99_rests(&mut rep, "kv_light", light);
            let capacity = cap.map_or(0.0, |c| r.rungs[c].rate);
            rep.virt("kv_p50_us", q(light, 0.5), "us", n(light));
            rep.virt("kv_p99_us", q(light, 0.99), "us", n(light));
            rep.virt("kv_p99_us.heavy", q(heavy, 0.99), "us", n(heavy));
            rep.virt("kv_capacity_ops_s", capacity, "1/s", None);
            rep.virt("p50_us", q(light, 0.5), "us", n(light));
            rep.virt("p99_us", q(light, 0.99), "us", n(light));
            rep.virt("guard_p99_us", q(heavy, 0.99), "us", n(heavy));
            // Delivered, not offered: completions per virtual second at
            // the capacity rung.
            let at_cap = cap.map_or(0, |c| r.rungs[c].lat.completed());
            let rung_s = RUNG.as_ns() as f64 * sims(kind) as f64 / 1e9;
            rep.virt("goodput_per_s", at_cap as f64 / rung_s, "1/s", None);
            for (i, g) in r.rungs.iter().enumerate() {
                let growing = backlog_growing(&g.backlog, N_GEN as u64 * sims(kind));
                rep.virt(&format!("rung{i}.p99_us"), q(&g.lat, 0.99), "us", n(&g.lat));
                rep.virt(
                    &format!("rung{i}.backlog_growing"),
                    f64::from(u8::from(growing)),
                    "bool",
                    None,
                );
            }
            let rated = &r.rungs[..=cap.unwrap_or(LIGHT)];
            let done: usize = rated.iter().map(|g| g.lat.completed()).sum();
            let tried: usize = rated.iter().map(|g| g.lat.attempted()).sum();
            done as f64 / tried.max(1) as f64
        }
    };
    rep.virt("failed_frac", out.failed_frac(), "ratio", None);
    rep.virt("served_frac", served, "ratio", None);
    let mut late: Vec<f64> = r.gen_late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = percentile(&late, 0.99);
    if kind == Kind::KvRate {
        rep.virt("load.gen_late_us", late_p99, "us", Some(late.len() as u64));
    }
    rep.attempted = out.attempted;
    rep.failed = out.bad_payload + r.gaps + r.bad_events;

    if traced {
        layers.emit(&mut rep);
        let spans = rec.spans();
        let t = span_layers(&mut rep, &spans);
        let handler = t
            .get("rpc.handler.kv")
            .copied()
            .unwrap_or_default()
            .virt_us();
        let kv_all = r.rungs.iter().fold(r.kv.clone(), |mut a, g| {
            a.merge(&g.lat);
            a
        });
        rep.layer(
            "rpc.wait_us.kv",
            (kv_all.mean_us() - handler).max(0.0),
            "us",
        );
        rep.layer(
            "os.traps_per_send",
            r.issue_traps as f64 / r.issues.max(1) as f64,
            "count",
        );
        rep.layer("load.gen_late_us", late_p99, "us");
        rep.layer("load.client_shed", out.client_shed as f64, "count");
        rep.layer("pipeline.exec_us", r.exec.mean_us(), "us");
        rep.layer("pipeline.fetch_us", r.fetch.mean_us(), "us");
        crate::write_spans(&spans, kind_name(kind), seed);
    }
    rep
}

/// Workload name of `kind`.
pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::TenantMix => "tenant_mix",
        Kind::Services => "pubsub_pipeline",
        Kind::KvRate => "kv_rate",
    }
}
