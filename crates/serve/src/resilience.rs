//! Resilience policies for the serve path: bounded retries with
//! deterministic backoff, per-request deadline budgets, and a per-vehicle
//! circuit breaker.
//!
//! Everything here is computed in **virtual time**: a retry backoff or an
//! injected slow-stage delay accrues as virtual nanoseconds charged
//! against the request's deadline budget instead of sleeping, so chaos
//! tests run at full speed and behave identically at every thread count.
//! Nothing on the serve path cancels work by wall clock.
//!
//! The [`CircuitBreaker`] is a state machine — no clocks, no I/O —
//! driven by the coordinating threads of the service's batches.
//! Cooldowns are measured in *batches*, the service's natural notion of
//! time, which keeps open/half-open scheduling reproducible. The breaker
//! keeps one gauge itself, the open count, set under its own lock;
//! `PredictionService` turns the returned [`BreakerTransition`]s into
//! the other `vup_serve_breaker_*` metrics and trace events.

use std::collections::HashMap;
use std::sync::Mutex;

use vup_ml::baseline::BaselineSpec;
use vup_obs::Gauge;

/// Splits the bits of `x` through the splitmix64 finalizer — the same
/// construction the fault injector uses, shared here for deterministic
/// backoff jitter. Public because the shard partitioner (`vup-shard`)
/// derives its rendezvous-hash weights from the same stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded retry with deterministic exponential backoff.
///
/// Backoffs are *virtual*: [`RetryPolicy::backoff_nanos`] returns the
/// nanoseconds attempt `n` would wait, and the service charges them
/// against the request's deadline budget without sleeping. The jittered
/// sequence is a pure function of `(jitter_seed, attempt)` — identical
/// seeds give identical sequences — and is monotonically non-decreasing
/// and capped at `cap_nanos` (jitter for attempt `n` stays below half of
/// attempt `n`'s exponential step, which doubles next attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fit attempts per vehicle per batch (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in virtual nanoseconds.
    pub base_backoff_nanos: u64,
    /// Upper bound every backoff is clamped to.
    pub cap_nanos: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// One attempt, no retries — the legacy serve behaviour.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_nanos: 1_000_000, // 1 ms
            cap_nanos: 1_000_000_000,      // 1 s
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and the default
    /// backoff curve.
    pub fn with_attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Virtual nanoseconds to back off after failed attempt `attempt`
    /// (1-based: `1` = after the first failure). Deterministic in
    /// `(jitter_seed, attempt)`, non-decreasing in `attempt`, and never
    /// above `cap_nanos`.
    pub fn backoff_nanos(&self, attempt: u32) -> u64 {
        let attempt = attempt.max(1);
        // base * 2^(attempt-1), exponent clamped so the shift stays in
        // range; saturating_mul absorbs the overflow beyond that.
        let step = self
            .base_backoff_nanos
            .saturating_mul(1u64 << u64::from(attempt - 1).min(63));
        // Jitter in [0, step/2]: adding strictly less than one doubling
        // keeps the jittered sequence monotone.
        let jitter = match step / 2 {
            0 => 0,
            range => splitmix64(self.jitter_seed ^ u64::from(attempt)) % (range + 1),
        };
        step.saturating_add(jitter).min(self.cap_nanos)
    }

    /// Total virtual nanoseconds of backoff charged after `failures`
    /// failed attempts (saturating).
    pub fn total_backoff_nanos(&self, failures: u32) -> u64 {
        (1..=failures).fold(0u64, |acc, attempt| {
            acc.saturating_add(self.backoff_nanos(attempt))
        })
    }
}

/// Thresholds of the per-vehicle [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed *episodes* (batches where every attempt for a
    /// vehicle failed) before the breaker opens. `0` disables the
    /// breaker entirely: every admission is allowed.
    pub failure_threshold: u32,
    /// Batches an open breaker waits before letting one half-open probe
    /// through.
    pub cooldown_batches: u64,
}

impl Default for BreakerConfig {
    /// Disabled — the legacy serve behaviour.
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 0,
            cooldown_batches: 2,
        }
    }
}

impl BreakerConfig {
    /// Whether this configuration ever rejects an admission.
    pub fn enabled(&self) -> bool {
        self.failure_threshold > 0
    }
}

/// The three states of one vehicle's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Failures below threshold: the primary path runs normally.
    Closed,
    /// Threshold reached: the primary path is rejected until the
    /// cooldown expires.
    Open,
    /// Cooldown expired: one probe episode decides — success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for metrics and trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the breaker decided for one vehicle at the start of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: run the primary path.
    Allow,
    /// Half-open: run the primary path as the probe episode.
    AllowProbe,
    /// Open and cooling down: do not run the primary path.
    Reject,
}

/// A state change the service should publish (metrics + trace events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The vehicle whose breaker moved.
    pub vehicle_id: u32,
    /// The state it moved into.
    pub to: BreakerState,
}

#[derive(Debug, Clone, Copy)]
struct VehicleBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// First batch index at which an open breaker admits a probe.
    open_until: u64,
}

impl VehicleBreaker {
    fn closed() -> VehicleBreaker {
        VehicleBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: 0,
        }
    }
}

/// Per-vehicle circuit breaker over fit episodes.
///
/// Closed → Open after `failure_threshold` consecutive failed episodes;
/// Open → HalfOpen once `cooldown_batches` batches have passed; a
/// half-open probe episode closes the breaker on success and re-opens it
/// on failure. Calls come from the coordinating thread of each batch, in
/// vehicle-sorted order. Batches on disjoint vehicles run concurrently,
/// so the `Mutex` over the map can be contended; batches that share a
/// vehicle run one after the other in batch-index order, so each
/// vehicle's transition stream is deterministic for every thread count.
#[derive(Default)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    states: Mutex<HashMap<u32, VehicleBreaker>>,
    /// Vehicles in the open state. Every shard's breaker shares the one
    /// gauge, so each transition moves it by its own change (±1) under
    /// `states`' lock.
    open: Gauge,
}

impl CircuitBreaker {
    /// A breaker with the given thresholds (disabled when
    /// `config.failure_threshold == 0`).
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        Self::observed(config, Gauge::default())
    }

    /// [`CircuitBreaker::new`], adding its vehicles in the open state
    /// to `open`: breakers that share the gauge sum into it.
    pub fn observed(config: BreakerConfig, open: Gauge) -> CircuitBreaker {
        CircuitBreaker {
            config,
            states: Mutex::new(HashMap::new()),
            open,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Decides whether `vehicle`'s primary path may run in batch
    /// `batch`. May move an open breaker to half-open (cooldown expiry),
    /// in which case the transition is returned for publication.
    pub fn admit(&self, vehicle: u32, batch: u64) -> (BreakerDecision, Option<BreakerTransition>) {
        if !self.config.enabled() {
            return (BreakerDecision::Allow, None);
        }
        let mut states = self.states.lock().expect("breaker lock");
        let entry = states.entry(vehicle).or_insert_with(VehicleBreaker::closed);
        match entry.state {
            BreakerState::Closed => (BreakerDecision::Allow, None),
            BreakerState::HalfOpen => (BreakerDecision::AllowProbe, None),
            BreakerState::Open => {
                if batch >= entry.open_until {
                    entry.state = BreakerState::HalfOpen;
                    self.open.add(-1.0);
                    (
                        BreakerDecision::AllowProbe,
                        Some(BreakerTransition {
                            vehicle_id: vehicle,
                            to: BreakerState::HalfOpen,
                        }),
                    )
                } else {
                    (BreakerDecision::Reject, None)
                }
            }
        }
    }

    /// Records the outcome of `vehicle`'s episode in batch `batch`
    /// (`success` = some attempt produced a model). Returns the state
    /// transition, if one happened.
    pub fn record(&self, vehicle: u32, batch: u64, success: bool) -> Option<BreakerTransition> {
        if !self.config.enabled() {
            return None;
        }
        let mut states = self.states.lock().expect("breaker lock");
        let entry = states.entry(vehicle).or_insert_with(VehicleBreaker::closed);
        let was_open = entry.state == BreakerState::Open;
        let transition = if success {
            let was = entry.state;
            *entry = VehicleBreaker::closed();
            (was != BreakerState::Closed).then_some(BreakerTransition {
                vehicle_id: vehicle,
                to: BreakerState::Closed,
            })
        } else {
            match entry.state {
                BreakerState::Closed => {
                    entry.consecutive_failures += 1;
                    (entry.consecutive_failures >= self.config.failure_threshold).then(|| {
                        entry.state = BreakerState::Open;
                        entry.open_until = batch + self.config.cooldown_batches;
                        BreakerTransition {
                            vehicle_id: vehicle,
                            to: BreakerState::Open,
                        }
                    })
                }
                BreakerState::HalfOpen => {
                    // Failed probe: straight back to open for another
                    // cooldown.
                    entry.state = BreakerState::Open;
                    entry.open_until = batch + self.config.cooldown_batches;
                    entry.consecutive_failures += 1;
                    Some(BreakerTransition {
                        vehicle_id: vehicle,
                        to: BreakerState::Open,
                    })
                }
                // A rejected vehicle records no episode; tolerate the
                // call anyway.
                BreakerState::Open => None,
            }
        };
        let is_open = entry.state == BreakerState::Open;
        if is_open != was_open {
            self.open.add(if is_open { 1.0 } else { -1.0 });
        }
        transition
    }

    /// Current state of `vehicle`'s breaker (Closed if never seen).
    pub fn state(&self, vehicle: u32) -> BreakerState {
        self.states
            .lock()
            .expect("breaker lock")
            .get(&vehicle)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// How many vehicles currently sit in the open state.
    pub fn open_count(&self) -> usize {
        count_open(&self.states.lock().expect("breaker lock"))
    }

    /// Takes this breaker's open vehicles back out of the shared gauge,
    /// for a breaker about to be replaced by a successor
    /// ([`crate::PredictionService::retire`]).
    pub(crate) fn untrack_gauge(&self) {
        let states = self.states.lock().expect("breaker lock");
        self.open.add(-(count_open(&states) as f64));
    }
}

fn count_open(states: &HashMap<u32, VehicleBreaker>) -> usize {
    states
        .values()
        .filter(|b| b.state == BreakerState::Open)
        .count()
}

/// The full resilience configuration of a [`crate::PredictionService`].
///
/// The `Default` reproduces the legacy behaviour exactly: one fit
/// attempt, no deadline, breaker disabled, no fallback (a failed fit is a
/// [`crate::ServeOutcome::Failed`]). [`ResilienceConfig::resilient`] is
/// the hardened profile the CLI switches on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// Retry policy for the per-vehicle fit episode.
    pub retry: RetryPolicy,
    /// Per-request virtual-nanosecond budget: once a vehicle's episode
    /// has accrued this much virtual time (injected delays + backoffs)
    /// the episode stops retrying and fails with a deadline error.
    /// `None` = unbounded.
    pub deadline_nanos: Option<u64>,
    /// Circuit-breaker thresholds (disabled by default).
    pub breaker: BreakerConfig,
    /// Degradation fallback: when the primary fit fails terminally (or
    /// the breaker rejects it), fit this baseline on the same view and
    /// serve it as [`crate::ServePath::Degraded`]. The spec round-trips
    /// through serde at service construction, so what degrades is
    /// provably the *saved* predictor. `None` = fail hard.
    pub fallback: Option<BaselineSpec>,
}

impl ResilienceConfig {
    /// The hardened profile: 3 attempts, 1 ms → 100 ms backoff, breaker
    /// opening after 3 failed episodes with a 2-batch cooldown, and a
    /// last-value fallback.
    pub fn resilient() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_nanos: 1_000_000,
                cap_nanos: 100_000_000,
                jitter_seed: 0x5eed,
            },
            deadline_nanos: None,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown_batches: 2,
            },
            fallback: Some(BaselineSpec::LastValue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_capped_and_seed_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_nanos: 1_000,
            cap_nanos: 500_000,
            jitter_seed: 42,
        };
        let seq: Vec<u64> = (1..=20).map(|a| policy.backoff_nanos(a)).collect();
        for pair in seq.windows(2) {
            assert!(pair[0] <= pair[1], "monotone: {seq:?}");
        }
        assert!(seq.iter().all(|&b| b <= policy.cap_nanos));
        assert_eq!(seq.last(), Some(&policy.cap_nanos), "deep attempts cap");
        let again: Vec<u64> = (1..=20).map(|a| policy.backoff_nanos(a)).collect();
        assert_eq!(seq, again, "same seed, same sequence");
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(
            seq,
            (1..=20).map(|a| other.backoff_nanos(a)).collect::<Vec<_>>(),
            "different seeds jitter differently"
        );
        assert_eq!(
            policy.total_backoff_nanos(3),
            seq[0] + seq[1] + seq[2],
            "total is the prefix sum"
        );
    }

    #[test]
    fn backoff_survives_extreme_parameters() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_nanos: u64::MAX,
            cap_nanos: u64::MAX,
            jitter_seed: 7,
        };
        assert_eq!(policy.backoff_nanos(100), u64::MAX);
        let zero = RetryPolicy {
            base_backoff_nanos: 0,
            ..policy
        };
        assert_eq!(zero.backoff_nanos(1), 0);
        assert_eq!(zero.backoff_nanos(64), 0, "zero base stays zero");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_batches: 2,
        });
        // Three failed episodes open the breaker.
        assert_eq!(breaker.record(7, 0, false), None);
        assert_eq!(breaker.record(7, 1, false), None);
        let opened = breaker.record(7, 2, false).unwrap();
        assert_eq!(opened.to, BreakerState::Open);
        assert_eq!(breaker.state(7), BreakerState::Open);
        assert_eq!(breaker.open_count(), 1);

        // Cooling down: rejected.
        let (d, t) = breaker.admit(7, 3);
        assert_eq!(d, BreakerDecision::Reject);
        assert!(t.is_none());

        // Cooldown over (opened at batch 2 + 2): half-open probe.
        let (d, t) = breaker.admit(7, 4);
        assert_eq!(d, BreakerDecision::AllowProbe);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);

        // Failed probe re-opens; successful probe closes.
        assert_eq!(breaker.record(7, 4, false).unwrap().to, BreakerState::Open);
        assert_eq!(breaker.admit(7, 6).0, BreakerDecision::AllowProbe);
        assert_eq!(breaker.record(7, 6, true).unwrap().to, BreakerState::Closed);
        assert_eq!(breaker.state(7), BreakerState::Closed);
        assert_eq!(breaker.open_count(), 0);
    }

    #[test]
    fn breakers_sharing_one_gauge_sum_their_open_vehicles() {
        let registry = vup_obs::Registry::new();
        let gauge = || registry.gauge("open").get();
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown_batches: 1,
        };
        let a = CircuitBreaker::observed(config, registry.gauge("open"));
        let b = CircuitBreaker::observed(config, registry.gauge("open"));
        a.record(1, 0, false);
        a.record(2, 0, false);
        b.record(3, 0, false);
        assert_eq!(gauge(), 3.0, "two shards' open vehicles add up");
        // Open -> half-open, a failed probe back to open, then closed.
        assert_eq!(b.admit(3, 1).0, BreakerDecision::AllowProbe);
        assert_eq!(gauge(), 2.0);
        b.record(3, 1, false);
        assert_eq!(gauge(), 3.0);
        b.admit(3, 2);
        b.record(3, 2, true);
        assert_eq!(gauge(), 2.0);
        // A retired breaker (a restarted shard's) takes its count along.
        a.untrack_gauge();
        assert_eq!(gauge(), 0.0);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_batches: 1,
        });
        breaker.record(0, 0, false);
        assert_eq!(breaker.record(0, 1, true), None, "already closed");
        breaker.record(0, 2, false);
        assert_eq!(
            breaker.record(0, 3, false).map(|t| t.to),
            Some(BreakerState::Open),
            "two fresh failures after the reset re-open"
        );
    }

    #[test]
    fn disabled_breaker_always_allows() {
        // The default profile: one attempt, no fallback, breaker off.
        let legacy = ResilienceConfig::default();
        assert_eq!(legacy.fallback, None);
        assert_eq!(legacy.retry.max_attempts, 1);
        let breaker = CircuitBreaker::new(legacy.breaker);
        assert!(!breaker.config().enabled());
        for batch in 0..10 {
            assert_eq!(breaker.record(1, batch, false), None);
            assert_eq!(breaker.admit(1, batch).0, BreakerDecision::Allow);
        }
        assert_eq!(breaker.open_count(), 0);
    }
}
