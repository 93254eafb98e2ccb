//! Property test: the change-compressed [`TimeSeries`] store reproduces,
//! output for output, a straightforward model that keeps a bounded
//! `(t_ns, value)` ring per probe. Both are driven with the same probes
//! (registered at random ticks), the same value streams (long runs,
//! changes every tick, levels that peg at capacity) and ring capacities
//! 1–8, and every query is compared after every tick.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use suca_obs::timeseries::{SeriesSnapshot, TimeSeries, TimeSeriesSnapshot};

struct RefProbe {
    name: String,
    node: u32,
    capacity: Option<u64>,
    ring: VecDeque<(u64, u64)>,
    evicted: u64,
    streak: u32,
    flagged: bool,
}

/// One bounded ring per probe, appended on every tick.
struct RefSeries {
    probes: Vec<RefProbe>,
    ring_capacity: usize,
    samples_taken: u64,
}

impl RefSeries {
    fn new(ring_capacity: usize) -> Self {
        RefSeries {
            probes: Vec::new(),
            ring_capacity,
            samples_taken: 0,
        }
    }

    fn register(&mut self, name: &str, node: u32, capacity: Option<u64>) {
        self.probes.push(RefProbe {
            name: name.to_string(),
            node,
            capacity,
            ring: VecDeque::new(),
            evicted: 0,
            streak: 0,
            flagged: false,
        });
    }

    /// `values[i]` is probe `i`'s level (registration order).
    fn sample_all(&mut self, now_ns: u64, values: &[u64]) {
        self.samples_taken += 1;
        for (p, &v) in self.probes.iter_mut().zip(values) {
            if p.ring.len() >= self.ring_capacity {
                p.ring.pop_front();
                p.evicted += 1;
            }
            p.ring.push_back((now_ns, v));
            match p.capacity {
                Some(cap) if cap > 0 && v >= cap => p.streak = p.streak.saturating_add(1),
                _ => {
                    p.streak = 0;
                    p.flagged = false;
                }
            }
        }
    }

    fn snapshot(&self) -> TimeSeriesSnapshot {
        let mut series: Vec<SeriesSnapshot> = self
            .probes
            .iter()
            .map(|p| SeriesSnapshot {
                name: p.name.clone(),
                node: p.node,
                capacity: p.capacity,
                evicted: p.evicted,
                points: p.ring.iter().copied().collect(),
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        TimeSeriesSnapshot {
            samples_taken: self.samples_taken,
            series,
        }
    }

    fn latest(&self) -> Vec<(String, u32, Option<u64>, u64)> {
        self.probes
            .iter()
            .filter_map(|p| {
                p.ring
                    .back()
                    .map(|&(_, v)| (p.name.clone(), p.node, p.capacity, v))
            })
            .collect()
    }

    fn newly_pegged(&mut self, min_samples: u32) -> Vec<(String, u64, u32)> {
        let mut out = Vec::new();
        for p in self.probes.iter_mut() {
            if !p.flagged && p.capacity.is_some() && p.streak >= min_samples.max(1) {
                p.flagged = true;
                out.push((p.name.clone(), p.capacity.unwrap_or(0), p.streak));
            }
        }
        out
    }

    fn render_last_window(&self, max_points: usize) -> String {
        let mut out = String::new();
        for s in &self.snapshot().series {
            let _ = write!(out, "  {}", s.name);
            if let Some(cap) = s.capacity {
                let _ = write!(out, " (cap {cap})");
            }
            out.push_str(": ");
            let skip = s.points.len().saturating_sub(max_points);
            for (i, (t, v)) in s.points.iter().skip(skip).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}@{t}ns");
            }
            if s.points.is_empty() {
                out.push_str("(no samples)");
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("  (no probes registered)\n");
        }
        out
    }
}

/// Deterministic per-case stream generator.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Next level of a probe's stream: 0 = long runs, 1 = a new value every
/// tick, 2 = a small level that often sits at capacity.
fn next_value(mode: u8, prev: u64, tick: u64, rng: &mut XorShift) -> u64 {
    match mode {
        0 => {
            if rng.below(12) == 0 {
                rng.below(4)
            } else {
                prev
            }
        }
        1 => tick * 7 + rng.below(3) + 1,
        _ => rng.below(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn change_compressed_store_matches_per_probe_rings(
        ring_capacity in 1usize..9,
        probes in prop::collection::vec((0u64..40, 0u8..4, 0u8..3), 1..7),
        ticks in 0u64..64,
        seed in any::<u64>(),
    ) {
        let mut rng = XorShift(seed | 1);
        let ts = TimeSeries::with_capacity(ring_capacity);
        let mut model = RefSeries::new(ring_capacity);
        // Levels the probe closures read; index = registration order.
        let levels: Vec<Arc<AtomicU64>> =
            (0..probes.len()).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut registered = 0usize;
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by_key(|&i| probes[i].0);
        let mut now = 0u64;
        for tick in 0..=ticks {
            // Register every probe whose tick has come (in tick order; the
            // name order is deliberately unrelated).
            while registered < order.len() && probes[order[registered]].0 <= tick {
                let i = order[registered];
                let capacity = match probes[i].1 {
                    0 => None,
                    1 => Some(0),
                    2 => Some(2),
                    _ => Some(1),
                };
                let name = format!("p{}.{}", (i * 7) % 5, i);
                let level = levels[registered].clone();
                ts.register(name.as_str(), i as u32, capacity, move |_| {
                    level.load(Ordering::Relaxed)
                });
                model.register(&name, i as u32, capacity);
                registered += 1;
            }
            if tick == ticks {
                break;
            }
            let mut values = Vec::with_capacity(registered);
            for (slot, level) in levels.iter().enumerate().take(registered) {
                let mode = probes[order[slot]].2;
                let v = next_value(mode, level.load(Ordering::Relaxed), tick, &mut rng);
                level.store(v, Ordering::Relaxed);
                values.push(v);
            }
            now += 1 + rng.below(20);
            ts.sample_all(now);
            model.sample_all(now, &values);

            let min_samples = 1 + rng.below(4) as u32;
            prop_assert_eq!(ts.newly_pegged(min_samples), model.newly_pegged(min_samples));
            let snap = ts.snapshot();
            let want = model.snapshot();
            prop_assert_eq!(&snap, &want, "tick {}", tick);
            prop_assert_eq!(snap.to_json(), want.to_json());
            prop_assert_eq!(snap.rollup().to_json(), want.rollup().to_json());
            prop_assert_eq!(ts.samples_taken(), model.samples_taken);
            let mut latest = Vec::new();
            ts.for_each_latest(|name, node, cap, v| latest.push((name.to_string(), node, cap, v)));
            prop_assert_eq!(latest, model.latest());
            let window = 1 + rng.below(4) as usize;
            prop_assert_eq!(ts.render_last_window(window), model.render_last_window(window));
        }
    }
}
