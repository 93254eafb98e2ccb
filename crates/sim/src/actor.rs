//! Thread-backed simulation actors.
//!
//! Application code in this reproduction (the processes that call the BCL
//! API, the MPI ranks, …) is written as ordinary blocking Rust. Each such
//! process runs on a real OS thread, but the engine enforces that **exactly
//! one party runs at a time** — either the scheduler or a single actor —
//! passing a one-slot [`Baton`] back and forth with `park`/`unpark`.
//! Execution is therefore sequential and fully deterministic even though the
//! code is multi-threaded; virtual time only advances through the event
//! queue.
//!
//! The handshake costs one OS thread switch per direction:
//!
//! ```text
//! scheduler                          actor thread
//! ---------                          ------------
//! pop WakeActor(id, gen)             park() loop: state ∉ {Run, Shutdown}
//! state := Run; actor.unpark() ────► sees Run, upgrades its Sim, user code runs
//! park() loop: state == Run          … user code parks or finishes …
//!   sees Parked/Done/Panicked ◄───── drops its Sim; state := Parked (or
//! continue event loop                  Done/Panicked); scheduler.unpark()
//! ```
//!
//! `Idle`, `Run` and `Shutdown` mean the actor side owns the slot; `Parked`,
//! `Done` and `Panicked` mean the scheduler does. Each side stores with
//! `Release` and reads with `Acquire`, and re-checks the state in a loop
//! after `park` returns, because `park` may wake spuriously (a late
//! `unpark` from an earlier hand-off leaves a token behind).
//!
//! A parked actor holds only a weak reference to the engine; it takes a
//! strong one back when the scheduler (which holds its own for the whole
//! wake) hands it the baton. Dropping the last [`Sim`] handle therefore
//! tears the engine down even while actors are parked (unless a parked
//! actor's own code holds a `Sim` clone): teardown stores `Shutdown`,
//! unparks each actor, which unwinds out of user code via a quiet
//! [`ShutdownToken`] panic, and joins its thread.
//!
//! Parks are *generational*: every park gets a fresh generation number and a
//! `WakeActor` event only resumes the actor if the generations match. Stale
//! wakeups (e.g. a signal notification racing a sleep timer) are dropped
//! instead of resuming the actor early.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;

use crate::engine::{Sim, SimInner};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Raw index (useful for deterministic per-actor seeding).
    pub fn index(self) -> u32 {
        self.0
    }
}

// Baton states. The first three hand the slot to the actor, the last three
// to the scheduler.
const IDLE: u8 = 0;
const RUN: u8 = 1;
const SHUTDOWN: u8 = 2;
const PARKED: u8 = 3;
const DONE: u8 = 4;
const PANICKED: u8 = 5;

/// How an actor handed the baton back to the scheduler.
pub(crate) enum Yielded {
    /// The actor parked (waiting for a timer or a signal).
    Parked,
    /// The actor's body returned normally.
    Done,
    /// The actor's body panicked; payload is the formatted message.
    Panicked(String),
}

/// Zero-sized panic payload used to unwind actor threads at teardown.
/// Recognized (and swallowed) by the actor runner and the global panic hook.
pub(crate) struct ShutdownToken;

/// The one-slot hand-off between the scheduler and one actor thread.
pub(crate) struct Baton {
    state: AtomicU8,
    /// Message of a panicked body, written before `state := Panicked`.
    panic_msg: Mutex<Option<String>>,
    /// The actor's thread, set right after it is spawned (before the first
    /// wake can be dispatched).
    actor: OnceLock<Thread>,
}

impl Baton {
    fn new() -> Self {
        Baton {
            state: AtomicU8::new(IDLE),
            panic_msg: Mutex::new(None),
            actor: OnceLock::new(),
        }
    }

    fn actor(&self) -> &Thread {
        self.actor.get().expect("actor thread handle not recorded")
    }

    /// Scheduler side: run the actor until it hands the baton back.
    pub(crate) fn resume(&self) -> Yielded {
        self.state.store(RUN, Ordering::Release);
        self.actor().unpark();
        loop {
            match self.state.load(Ordering::Acquire) {
                PARKED => return Yielded::Parked,
                DONE => return Yielded::Done,
                PANICKED => {
                    let msg = self.panic_msg.lock().take().unwrap_or_default();
                    return Yielded::Panicked(msg);
                }
                _ => std::thread::park(),
            }
        }
    }

    /// Scheduler side, at teardown: make a parked (or never started) actor
    /// unwind out of user code. The caller joins the thread.
    pub(crate) fn shutdown(&self) {
        self.state.store(SHUTDOWN, Ordering::Release);
        self.actor().unpark();
    }

    /// Actor side: wait for the scheduler. `true` means run, `false` means
    /// the engine is being torn down.
    fn wait_turn(&self) -> bool {
        loop {
            match self.state.load(Ordering::Acquire) {
                RUN => return true,
                SHUTDOWN => return false,
                _ => std::thread::park(),
            }
        }
    }

    /// Actor side: give the slot back to the scheduler.
    fn hand_back(&self, state: u8, scheduler: &Thread) {
        self.state.store(state, Ordering::Release);
        scheduler.unpark();
    }
}

/// Scheduler-side record of one actor.
pub(crate) struct ActorRecord {
    pub(crate) name: String,
    pub(crate) baton: Arc<Baton>,
    /// Park generation; a `WakeActor` event must match this to resume.
    pub(crate) gen: u64,
    pub(crate) status: ActorStatus,
    pub(crate) join: Option<JoinHandle<()>>,
    /// Event-queue shard this actor's wakeups land on (normally the node
    /// the process runs on; see [`Sim::spawn_pinned`](crate::Sim)).
    pub(crate) shard: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ActorStatus {
    Parked,
    Running,
    Done,
}

/// Handle passed to actor bodies; the actor's view of the simulation.
///
/// All blocking operations (`sleep`, [`crate::signal::Signal::wait`]) go
/// through this context so the engine can keep virtual time consistent.
pub struct ActorCtx {
    /// Strong handle, held only while this actor has the baton.
    sim: Option<Sim>,
    weak: Weak<SimInner>,
    id: ActorId,
    name: String,
    baton: Arc<Baton>,
}

impl ActorCtx {
    /// The simulation handle (for scheduling events, reading the clock, …).
    pub fn sim(&self) -> &Sim {
        self.sim.as_ref().expect("actor context used while parked")
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim().now()
    }

    /// Advance virtual time by `d` — models this process spending `d` of
    /// CPU/elapsed time. Other events scheduled inside the window run while
    /// this actor is parked.
    pub fn sleep(&mut self, d: SimDuration) {
        if d.is_zero() {
            return self.yield_now();
        }
        let gen = self.sim().next_park_gen(self.id);
        self.sim().schedule_wake_in(d, self.id, gen);
        self.park();
    }

    /// Yield the baton without advancing time: all other events scheduled at
    /// the current instant run before this actor resumes.
    pub fn yield_now(&mut self) {
        let gen = self.sim().next_park_gen(self.id);
        self.sim().schedule_wake_in(SimDuration::ZERO, self.id, gen);
        self.park();
    }

    /// Park until a matching wakeup. Internal: used by `sleep` and signals,
    /// which must have arranged a wake *before* calling this.
    pub(crate) fn park(&mut self) {
        self.sim().mark_parked(self.id);
        self.release(PARKED);
        if !self.acquire() {
            panic::panic_any(ShutdownToken);
        }
    }

    /// Wait for the baton and take a strong engine handle again. `false`
    /// means the engine is being torn down.
    fn acquire(&mut self) -> bool {
        if !self.baton.wait_turn() {
            return false;
        }
        // Run is only ever stored by a scheduler inside `Sim::run`, whose
        // own handle keeps the engine alive.
        self.sim = Some(Sim::upgrade(&self.weak).expect("engine gone while actor runs"));
        true
    }

    /// Drop the strong engine handle and hand the baton back with `state`.
    /// The drop is never the last handle: the scheduler holds one for the
    /// whole wake, which is also why the upgrade (for a body that unwound
    /// out of `park` without a handle) succeeds.
    fn release(&mut self, state: u8) {
        let Some(sim) = self.sim.take().or_else(|| Sim::upgrade(&self.weak)) else {
            return;
        };
        let scheduler = sim.scheduler_thread();
        drop(sim);
        self.baton.hand_back(state, &scheduler);
    }
}

/// Spawn machinery, called from [`Sim::spawn`].
pub(crate) fn spawn_actor_thread(
    sim: &Sim,
    id: ActorId,
    name: String,
    body: Box<dyn FnOnce(&mut ActorCtx) + Send + 'static>,
) -> (Arc<Baton>, JoinHandle<()>) {
    let baton = Arc::new(Baton::new());
    let weak = sim.downgrade();
    let thread_name = format!("sim-actor-{}-{}", id.0, name);
    let actor_baton = baton.clone();
    let join = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            let mut ctx = ActorCtx {
                sim: None,
                weak,
                id,
                name,
                baton: actor_baton,
            };
            // Wait to be scheduled for the first time.
            if !ctx.acquire() {
                return;
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
            let state = match result {
                Ok(()) => DONE,
                Err(payload) => {
                    if payload.downcast_ref::<ShutdownToken>().is_some() {
                        // Teardown unwind: exit quietly, nobody is listening.
                        return;
                    }
                    let text = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "<non-string panic payload>".to_string()
                    };
                    *ctx.baton.panic_msg.lock() = Some(text);
                    PANICKED
                }
            };
            ctx.release(state);
        })
        .expect("failed to spawn actor thread");
    baton
        .actor
        .set(join.thread().clone())
        .expect("actor thread handle recorded twice");
    (baton, join)
}

/// Install a process-global panic hook that silences [`ShutdownToken`]
/// unwinds (they are control flow, not errors) while delegating everything
/// else to the previously installed hook. Idempotent.
pub(crate) fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownToken>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}
