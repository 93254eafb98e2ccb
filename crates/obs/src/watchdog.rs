//! Stall watchdog: turns "the simulation silently degraded" into a
//! first-class, dumped, counted event.
//!
//! Two stall signals, both checked from the simulator's telemetry tick:
//!
//! 1. **Open chain over budget** — a traced message recorded an
//!    [`stage::SEND`](crate::trace::stage::SEND) but no terminal stage, and
//!    its newest event is older than a configurable sim-time budget. A
//!    wedged retransmission loop keeps generating events, so the chain
//!    stays in the ring while never closing — exactly the livelock shape a
//!    deadlock detector misses.
//! 2. **Probe pegged at capacity** — a telemetry probe with a declared
//!    capacity sat at/above it for M consecutive samples
//!    ([`TimeSeries::newly_pegged`]).
//!
//! On the first stall the watchdog dumps the flight recorder
//! ([`MsgTracer::dump_once`]) and the last telemetry window to stderr;
//! every distinct stalled chain/probe increments the `watchdog.stalls`
//! counter exactly once, so clean runs can assert `watchdog.stalls == 0`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::timeseries::TimeSeries;
use crate::trace::{is_terminal, stage, MsgTracer, TraceId};
use crate::{Counter, Metrics};

/// Stall thresholds. The defaults are deliberately generous: they must stay
/// silent across every clean harness (including 128 KB bandwidth sweeps
/// where a single message legitimately lives for ~1 ms of virtual time)
/// while still firing within a bounded sim-time on a genuinely wedged run.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Flag a chain whose newest event is older than this and which never
    /// reached a terminal stage (virtual nanoseconds).
    pub chain_budget_ns: u64,
    /// Flag a probe at/above its capacity for this many consecutive
    /// samples.
    pub pegged_samples: u32,
    /// Run the (comparatively expensive) checks every N sampling ticks.
    pub check_every: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // 250 ms of virtual time: ~250× the longest clean message
            // lifetime observed across the repro harnesses.
            chain_budget_ns: 250_000_000,
            // At the default 10 µs period: ~5 ms continuously full.
            pegged_samples: 512,
            check_every: 50,
        }
    }
}

struct WatchState {
    flagged_chains: std::collections::BTreeSet<(u32, u32)>,
    telemetry_dumped: bool,
}

/// One detected stall, reported by [`Watchdog::check`]. The telemetry
/// driver forwards these to the health engine, where they surface as
/// immediately-firing `watchdog.*` alerts; the `watchdog.stalls` counter
/// and the stderr/flight-recorder response are unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stall {
    /// A traced message chain recorded a send but no terminal stage and has
    /// been silent past the budget.
    Chain {
        /// Origin node of the stuck message.
        origin: u32,
        /// Message id within the origin.
        msg_id: u32,
        /// Sim-time since the chain's newest event.
        age_ns: u64,
    },
    /// A capacity probe sat at/above its declared capacity for the
    /// configured number of consecutive samples.
    Pegged {
        /// Probe name (e.g. `n3.nic.sram_used`).
        probe: String,
        /// Declared capacity.
        capacity: u64,
        /// Consecutive samples at/above capacity.
        streak: u32,
    },
}

/// The stall detector. One per simulation, driven by the telemetry tick.
pub struct Watchdog {
    cfg: WatchdogConfig,
    stalls: Counter,
    state: Mutex<WatchState>,
}

impl Watchdog {
    /// Build a watchdog and register its `watchdog.stalls` counter (so the
    /// zero shows up in every snapshot — "0 stalls" is the clean-run
    /// claim).
    pub fn new(cfg: WatchdogConfig, metrics: &Metrics) -> Self {
        Watchdog {
            cfg,
            stalls: metrics.counter("watchdog.stalls"),
            state: Mutex::new(WatchState {
                flagged_chains: std::collections::BTreeSet::new(),
                telemetry_dumped: false,
            }),
        }
    }

    /// Configured thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Stalls counted so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Run both stall checks at virtual time `now_ns`. Returns the *new*
    /// stalls (each distinct chain/probe is reported once).
    pub fn check(&self, now_ns: u64, tracer: &MsgTracer, series: &TimeSeries) -> Vec<Stall> {
        let mut new_stalls = Vec::new();

        // Signal 1: open chains over budget. A chain whose SEND survives in
        // the bounded ring is by construction recent enough to judge; once
        // the SEND is evicted the chain is skipped (eviction is
        // oldest-first, so a terminal can never be evicted before its
        // send). A chain's newest event is no older than its SEND, so only
        // chains whose SEND is itself over budget can stall: find those
        // first (usually none) and aggregate just them, as (closed, newest
        // end_ns). Until the clock passes the budget no SEND can be over it,
        // so the ring walk is skipped outright.
        let mut chains: BTreeMap<TraceId, (bool, u64)> = BTreeMap::new();
        if now_ns > self.cfg.chain_budget_ns {
            tracer.for_each_event(|ev| {
                if !ev.trace.is_none()
                    && ev.stage.as_ref() == stage::SEND
                    && now_ns.saturating_sub(ev.end_ns) > self.cfg.chain_budget_ns
                {
                    chains.insert(ev.trace, (false, 0));
                }
            });
        }
        if !chains.is_empty() {
            tracer.for_each_event(|ev| {
                if let Some(e) = chains.get_mut(&ev.trace) {
                    e.0 |= is_terminal(ev.stage.as_ref());
                    e.1 = e.1.max(ev.end_ns);
                }
            });
        }
        for (trace, (closed, last_ns)) in chains {
            if closed {
                continue;
            }
            let age = now_ns.saturating_sub(last_ns);
            if age <= self.cfg.chain_budget_ns {
                continue;
            }
            let fresh = {
                let mut st = self.state.lock().expect("watchdog poisoned");
                st.flagged_chains.insert((trace.origin, trace.msg_id))
            };
            if fresh {
                self.stalls.inc();
                new_stalls.push(Stall::Chain {
                    origin: trace.origin,
                    msg_id: trace.msg_id,
                    age_ns: age,
                });
                self.trip(
                    &format!(
                        "watchdog: chain (origin {}, msg {}) open for {age} ns \
                         (budget {} ns) at t={now_ns} ns",
                        trace.origin, trace.msg_id, self.cfg.chain_budget_ns
                    ),
                    tracer,
                    series,
                );
            }
        }

        // Signal 2: probes pegged at capacity. `newly_pegged` reports each
        // probe once per continuous episode.
        for (name, cap, streak) in series.newly_pegged(self.cfg.pegged_samples) {
            self.stalls.inc();
            self.trip(
                &format!(
                    "watchdog: probe {name} pegged at capacity {cap} for \
                     {streak} consecutive samples at t={now_ns} ns"
                ),
                tracer,
                series,
            );
            new_stalls.push(Stall::Pegged {
                probe: name,
                capacity: cap,
                streak,
            });
        }
        new_stalls
    }

    /// Stall response: one flight-recorder dump per run (the tracer's
    /// one-shot), one telemetry-window dump per run, and a stderr line per
    /// stall.
    fn trip(&self, reason: &str, tracer: &MsgTracer, series: &TimeSeries) {
        eprintln!("[watchdog] {reason}");
        tracer.dump_once(reason);
        let dump_window = {
            let mut st = self.state.lock().expect("watchdog poisoned");
            !std::mem::replace(&mut st.telemetry_dumped, true)
        };
        if dump_window {
            eprintln!("==== telemetry window (last 16 samples per probe) ====");
            eprint!("{}", series.render_last_window(16));
            eprintln!("==== end telemetry window ====");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceLayer};
    use std::collections::BTreeSet;

    fn open_chain(tracer: &MsgTracer, msg: u32, at_ns: u64) {
        let t = TraceId::new(0, msg);
        tracer.record(TraceEvent::span(
            t,
            0,
            TraceLayer::Library,
            stage::SEND,
            at_ns,
            at_ns + 100,
        ));
        tracer.record(
            TraceEvent::span(
                t,
                0,
                TraceLayer::Mcp,
                stage::INJECT,
                at_ns + 100,
                at_ns + 150,
            )
            .with_seq(0),
        );
    }

    #[test]
    fn open_chain_over_budget_counts_once() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000,
                pegged_samples: 4,
                check_every: 1,
            },
            &m,
        );
        open_chain(&tracer, 2, 0);
        assert!(wd.check(500, &tracer, &ts).is_empty(), "within budget");
        let stalls = wd.check(5_000, &tracer, &ts);
        assert_eq!(stalls.len(), 1, "over budget");
        assert!(
            matches!(
                stalls[0],
                Stall::Chain {
                    origin: 0,
                    msg_id: 2,
                    ..
                }
            ),
            "stall identifies the chain: {stalls:?}"
        );
        assert!(
            wd.check(9_000, &tracer, &ts).is_empty(),
            "same chain not recounted"
        );
        assert_eq!(wd.stalls(), 1);
        assert_eq!(m.get("watchdog.stalls"), 1);
        assert!(tracer.has_dumped(), "flight recorder tripped");
    }

    #[test]
    fn wedged_chain_flagged_only_once_the_clock_passes_the_budget() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let budget = 1_000;
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: budget,
                pegged_samples: 4,
                check_every: 1,
            },
            &m,
        );
        // A SEND at t=0 whose chain never closes (its newest event is the
        // SEND itself, so its age is exactly `now`).
        tracer.record(TraceEvent::instant(
            TraceId::new(1, 5),
            1,
            TraceLayer::Library,
            stage::SEND,
            0,
        ));
        assert!(
            wd.check(budget, &tracer, &ts).is_empty(),
            "age == budget is not over it"
        );
        let stalls = wd.check(budget + 1, &tracer, &ts);
        assert_eq!(
            stalls,
            vec![Stall::Chain {
                origin: 1,
                msg_id: 5,
                age_ns: budget + 1,
            }]
        );
        assert_eq!(wd.stalls(), 1);
    }

    #[test]
    fn closed_chain_never_stalls() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000,
                pegged_samples: 4,
                check_every: 1,
            },
            &m,
        );
        open_chain(&tracer, 2, 0);
        tracer.record(TraceEvent::instant(
            TraceId::new(0, 2),
            1,
            TraceLayer::Library,
            stage::POLL_RECV,
            400,
        ));
        assert!(wd.check(1_000_000, &tracer, &ts).is_empty());
        assert_eq!(wd.stalls(), 0);
        assert!(!tracer.has_dumped());
    }

    #[test]
    fn chain_with_evicted_send_never_stalls() {
        let m = Metrics::new();
        let tracer = MsgTracer::with_capacity(2);
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000,
                pegged_samples: 4,
                check_every: 1,
            },
            &m,
        );
        open_chain(&tracer, 2, 0);
        // Two more node-0 events push the SEND out of the 2-slot ring.
        for seq in 1..3 {
            tracer.record(
                TraceEvent::span(
                    TraceId::new(0, 2),
                    0,
                    TraceLayer::Mcp,
                    stage::INJECT,
                    200,
                    250,
                )
                .with_seq(seq),
            );
        }
        assert_eq!(tracer.total_evicted(), 2);
        assert!(wd.check(1_000_000, &tracer, &ts).is_empty());
        assert_eq!(wd.stalls(), 0);
    }

    /// The pre-filter-free algorithm: aggregate every chain in the sorted
    /// trace copy, flag open ones whose newest event is over budget.
    fn reference_chain_stalls(
        now_ns: u64,
        budget_ns: u64,
        tracer: &MsgTracer,
        flagged: &mut BTreeSet<(u32, u32)>,
    ) -> Vec<Stall> {
        let mut chains: BTreeMap<TraceId, (bool, bool, u64)> = BTreeMap::new();
        for ev in &tracer.events() {
            if ev.trace.is_none() {
                continue;
            }
            let e = chains.entry(ev.trace).or_insert((false, false, 0));
            e.0 |= ev.stage.as_ref() == stage::SEND;
            e.1 |= is_terminal(ev.stage.as_ref());
            e.2 = e.2.max(ev.end_ns);
        }
        let mut out = Vec::new();
        for (trace, (has_send, closed, last_ns)) in chains {
            let age = now_ns.saturating_sub(last_ns);
            if has_send
                && !closed
                && age > budget_ns
                && flagged.insert((trace.origin, trace.msg_id))
            {
                out.push(Stall::Chain {
                    origin: trace.origin,
                    msg_id: trace.msg_id,
                    age_ns: age,
                });
            }
        }
        out
    }

    #[test]
    fn prefiltered_check_matches_reference_on_random_rings() {
        let stages = [
            stage::SEND,
            stage::INJECT,
            stage::SEND,
            stage::POLL_RECV,
            stage::POLL_SEND,
            stage::MSG_FAILED,
            stage::INJECT,
        ];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for round in 0..20 {
            let m = Metrics::new();
            // Small rings so evictions drop SENDs of some chains.
            let tracer = MsgTracer::with_capacity(48);
            let ts = TimeSeries::new();
            let budget = 5_000;
            let wd = Watchdog::new(
                WatchdogConfig {
                    chain_budget_ns: budget,
                    pegged_samples: 4,
                    check_every: 1,
                },
                &m,
            );
            let mut flagged = BTreeSet::new();
            let mut now = 0u64;
            let mut total = 0;
            for _ in 0..12 {
                for _ in 0..30 {
                    let trace = if next(10) == 0 {
                        TraceId::NONE
                    } else {
                        TraceId::new(next(3) as u32, next(40) as u32)
                    };
                    let start = now.saturating_sub(next(20_000));
                    let st = stages[next(stages.len() as u64) as usize];
                    let node = next(4) as u32;
                    tracer.record(TraceEvent::span(
                        trace,
                        node,
                        TraceLayer::Library,
                        st,
                        start,
                        start + next(3_000),
                    ));
                }
                now += next(4_000);
                let got = wd.check(now, &tracer, &ts);
                let want = reference_chain_stalls(now, budget, &tracer, &mut flagged);
                assert_eq!(got, want, "round {round} at t={now}");
                total += got.len();
            }
            assert_eq!(wd.stalls(), flagged.len() as u64);
            if round == 0 {
                assert!(total > 0, "the random rings must exercise stalls");
            }
        }
    }

    #[test]
    fn pegged_probe_counts_as_stall() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        ts.register("n0.sram", 0, Some(8), |_| 8);
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000_000,
                pegged_samples: 3,
                check_every: 1,
            },
            &m,
        );
        for t in 0..3u64 {
            ts.sample_all(t * 10);
        }
        let stalls = wd.check(30, &tracer, &ts);
        assert_eq!(stalls.len(), 1);
        assert!(
            matches!(&stalls[0], Stall::Pegged { probe, capacity: 8, .. } if probe == "n0.sram"),
            "stall identifies the probe: {stalls:?}"
        );
        assert_eq!(wd.stalls(), 1);
        // Still pegged — but the episode was already reported.
        ts.sample_all(40);
        assert!(wd.check(50, &tracer, &ts).is_empty());
    }
}
