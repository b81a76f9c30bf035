//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded xorshift64\* stream of fault decisions that
//! the execution engine (and the MPI scheduler above it) consults at
//! well-defined points: slice starts, yield points, host-FFI attempts, and
//! message sends. Because the cooperative schedulers are deterministic,
//! the same [`FaultConfig`] produces the *same* faults at the same step
//! counts on every run — a failing seed is a reproducer, not a flake.
//!
//! Every injected fault is counted in [`ResilienceStats`], which the
//! runtimes thread through `WorldRun` / `RunReport` so resilience behavior
//! is observable (and bit-for-bit comparable across runs).

use nir::codec::{CodecResult, Reader, Wire, Writer};

/// Deterministic xorshift64\* PRNG — the same in-repo idiom as the
/// property-test suites; public so runtimes can derive per-rank streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng(u64);

impl FaultRng {
    pub fn new(seed: u64) -> Self {
        FaultRng(seed.max(1))
    }

    /// The raw stream state — the "consumed cursor" a checkpoint captures
    /// so a restored plan resumes exactly where the snapshot left off.
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Rebuild a stream at a previously captured [`FaultRng::state`].
    pub fn from_state(state: u64) -> Self {
        FaultRng(state.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// One Bernoulli draw with probability `p`. Rates outside (0, 1)
    /// short-circuit without consuming the stream, so zero-rate fault
    /// kinds are free.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
}

/// The stream's consumed cursor is what crosses the wire.
impl Wire for FaultRng {
    fn put(&self, w: &mut Writer) {
        w.u64(self.0);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(FaultRng::from_state(r.u64()?))
    }
}

/// Injection rates and knobs for one run. All rates are probabilities per
/// decision point; the default config injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream (per-rank streams are derived from it).
    pub seed: u64,
    /// Probability that a yield point kills the rank (rank crash).
    pub crash: f64,
    /// Probability that a scheduling slice's fuel is cut short.
    pub fuel_exhaust: f64,
    /// Probability that one host-FFI attempt transiently fails.
    pub host_transient: f64,
    /// Probability that an outgoing point-to-point message is dropped.
    pub msg_drop: f64,
    /// Probability that a message / collective payload is bit-corrupted.
    pub msg_corrupt: f64,
    /// Probability that a message / collective is delayed.
    pub msg_delay: f64,
    /// Probability that writing one checkpoint fails (I/O fault). The
    /// world keeps running on its previous snapshot.
    pub ckpt_write_fail: f64,
    /// Probability that a rank's transport connection attempt is refused
    /// (the rank re-dials with backoff; the refusals are counted and the
    /// retry latency is charged to its clock).
    pub connect_refuse: f64,
    /// Probability that one framed transport message is truncated in
    /// flight. Truncation is *detected* (length prefix + checksum), so
    /// the frame is discarded typed — the receiver waits on, exactly like
    /// a dropped message, and the timeout/restart machinery recovers.
    pub frame_truncate: f64,
    /// Probability that a frame's acknowledgement is delayed, pushing the
    /// message's delivery `ack_delay_cycles` into the virtual future.
    pub ack_delay: f64,
    /// Probability that one JIT-service translation attempt fails with an
    /// injected typed error (the `jitd` daemon's service-loop fault: the
    /// requesting client gets a typed failure reply, never a hang, and
    /// single-flight followers are released with the same typed error).
    pub translate_fail: f64,
    /// Extra virtual cycles a delayed message waits before delivery.
    pub delay_cycles: u64,
    /// Extra virtual cycles a delayed transport acknowledgement adds.
    pub ack_delay_cycles: u64,
    /// Retry budget for transient host-FFI failures before giving up.
    pub max_host_retries: u32,
    /// Base virtual-cycle backoff charged per host-FFI retry (doubles
    /// with each attempt).
    pub retry_backoff_cycles: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x5EED_FA17,
            crash: 0.0,
            fuel_exhaust: 0.0,
            host_transient: 0.0,
            msg_drop: 0.0,
            msg_corrupt: 0.0,
            msg_delay: 0.0,
            ckpt_write_fail: 0.0,
            connect_refuse: 0.0,
            frame_truncate: 0.0,
            ack_delay: 0.0,
            translate_fail: 0.0,
            delay_cycles: 50_000,
            ack_delay_cycles: 20_000,
            max_host_retries: 4,
            retry_backoff_cycles: 1_000,
        }
    }
}

impl FaultConfig {
    /// A no-fault config with the given seed (rates are then set by
    /// struct update: `FaultConfig { msg_delay: 0.1, ..FaultConfig::seeded(7) }`).
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..Default::default()
        }
    }
}

nir::wire_struct!(FaultConfig {
    seed,
    crash,
    fuel_exhaust,
    host_transient,
    msg_drop,
    msg_corrupt,
    msg_delay,
    ckpt_write_fail,
    connect_refuse,
    frame_truncate,
    ack_delay,
    translate_fail,
    delay_cycles,
    ack_delay_cycles,
    max_host_retries,
    retry_backoff_cycles,
});

nir::counters! {
    /// Cumulative resilience counters: every injected fault, retry, timeout,
    /// and degradation, observable through `WorldRun` / `RunReport`.
    /// `Eq` on purpose — determinism tests compare these bit-for-bit.
    /// `merge` folds per-rank sets together; the `Wire` layout is every
    /// counter in declaration order, shared by checkpoints and the `dist`
    /// and `jitd` protocols, so adding one is a `CKPT_VERSION` bump.
    pub struct ResilienceStats [merge, wire] {
        /// Injected rank crashes.
        crashes,
        /// Injected short fuel slices.
        fuel_exhaustions,
        /// Injected transient host-FFI failures.
        host_transients,
        /// Host-FFI retries performed (with virtual-time backoff).
        host_retries,
        /// Point-to-point messages dropped in flight.
        dropped_messages,
        /// Message / collective payloads bit-corrupted.
        corrupted_messages,
        /// Messages / collectives delayed.
        delayed_messages,
        /// Checkpoint writes that failed with an injected I/O fault.
        ckpt_write_failures,
        /// Transport connection attempts refused (each one re-dialed).
        connect_refusals,
        /// Framed transport messages truncated in flight (detected typed by
        /// the length prefix + checksum and discarded).
        truncated_frames,
        /// Transport acknowledgements delayed in virtual time.
        delayed_acks,
        /// Real (wall-clock) transport connection attempts that were retried
        /// with seeded backoff + jitter before succeeding — the `dist`
        /// worker's re-dial loop, a recovery action like `host_retries`.
        connect_retries,
        /// JIT-service translation attempts failed with an injected fault
        /// (the requesting client received a typed error reply).
        translate_failures,
        /// Blocked states converted into typed timeouts.
        timeouts,
        /// JIT requests served by a degraded translation mode.
        degraded_jits,
        /// Checkpoints taken at collective boundaries.
        checkpoints_taken,
        /// Worlds rolled back to a checkpoint (or cold-restarted) and resumed.
        restarts,
        /// Coordinator RPC rounds fanned out overlapped (all request frames
        /// written before any reply is awaited) instead of rank-serially —
        /// the `dist` backend's Init/Restore/Finish broadcasts.
        overlapped_rounds,
    }
}

impl ResilienceStats {
    /// Total injected faults (not counting recovery actions).
    pub fn injected(&self) -> u64 {
        self.crashes
            + self.fuel_exhaustions
            + self.host_transients
            + self.dropped_messages
            + self.corrupted_messages
            + self.delayed_messages
            + self.ckpt_write_failures
            + self.connect_refusals
            + self.truncated_frames
            + self.delayed_acks
            + self.translate_failures
    }
}

impl std::fmt::Display for ResilienceStats {
    /// Compact one-line resilience picture for bench output and
    /// post-mortems.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} (crash {}, fuel {}, ffi {}, drop {}, corrupt {}, \
             delay {}, ckpt-io {}, refuse {}, trunc {}, ack-delay {}, \
             xlate-fail {}) · retries {} · redials {} · timeouts {} \
             · degraded {} · ckpts {} · restarts {} · overlapped {}",
            self.injected(),
            self.crashes,
            self.fuel_exhaustions,
            self.host_transients,
            self.dropped_messages,
            self.corrupted_messages,
            self.delayed_messages,
            self.ckpt_write_failures,
            self.connect_refusals,
            self.truncated_frames,
            self.delayed_acks,
            self.translate_failures,
            self.host_retries,
            self.connect_retries,
            self.timeouts,
            self.degraded_jits,
            self.checkpoints_taken,
            self.restarts,
            self.overlapped_rounds,
        )
    }
}

/// What happens to one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    None,
    /// The message is silently lost (the receiver keeps waiting).
    Drop,
    /// One element of the payload has a mantissa bit flipped.
    Corrupt,
    /// Delivery is pushed `cycles` into the virtual future.
    Delay(u64),
}

/// What happens to one framed transport message (drawn *after* the
/// payload-level [`MsgFault`], so armies of zero-rate configs keep their
/// historical streams bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    None,
    /// The frame is truncated in flight; the checksum rejects it typed
    /// and the message is lost (the receiver keeps waiting).
    Truncate,
    /// The frame's acknowledgement is late; delivery lands `cycles`
    /// later in virtual time.
    DelayAck(u64),
}

nir::wire_enum!(MsgFault { 0 = None, 1 = Drop, 2 = Corrupt, 3 = Delay(cycles) });
nir::wire_enum!(TransportFault { 0 = None, 1 = Truncate, 2 = DelayAck(cycles) });

/// Fuel granted to a slice when exhaustion is injected — small enough to
/// visibly perturb scheduling, large enough to keep making progress.
const EXHAUSTED_SLICE_FUEL: u64 = 128;

/// A seeded, stateful fault decision stream for one execution context
/// (one rank). Consulted by `exec::run` at slice starts and yield points
/// and by the MPI scheduler at send/host-call sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub config: FaultConfig,
    rng: FaultRng,
    pub stats: ResilienceStats,
}

// What a checkpoint captures of a plan: the knobs, the stream cursor and
// the counters so far.
nir::wire_struct!(FaultPlan { config, rng, stats });

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            rng: FaultRng::new(config.seed),
            stats: ResilienceStats::default(),
        }
    }

    /// Derive the decorrelated per-rank stream of a world-level config.
    pub fn for_rank(config: FaultConfig, rank: u32) -> Self {
        let seed = config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1));
        FaultPlan {
            config,
            rng: FaultRng::new(seed),
            stats: ResilienceStats::default(),
        }
    }

    /// The stream's consumed cursor, captured by checkpoints.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Rebuild a plan exactly as a checkpoint captured it.
    pub fn restore(config: FaultConfig, rng_state: u64, stats: ResilienceStats) -> Self {
        FaultPlan {
            config,
            rng: FaultRng::from_state(rng_state),
            stats,
        }
    }

    /// Perturb the stream past its consumed cursor after a rollback.
    /// Mixing the captured state with the restart ordinal keeps replay
    /// deterministic while guaranteeing the decisions that killed the
    /// previous attempt are not re-drawn identically forever.
    pub fn reseed(&mut self, salt: u64) {
        let mixed = self
            .rng
            .state()
            .rotate_left(17)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.max(1)));
        self.rng = FaultRng::new(mixed);
    }

    /// Fuel the next scheduling slice may burn (injects fuel exhaustion).
    pub fn slice_fuel(&mut self, fuel: u64) -> u64 {
        if self.rng.chance(self.config.fuel_exhaust) {
            self.stats.fuel_exhaustions += 1;
            fuel.min(EXHAUSTED_SLICE_FUEL)
        } else {
            fuel
        }
    }

    /// Does this yield point kill the rank?
    pub fn crash_at_yield(&mut self) -> bool {
        if self.rng.chance(self.config.crash) {
            self.stats.crashes += 1;
            true
        } else {
            false
        }
    }

    /// Does this host-FFI attempt transiently fail?
    pub fn host_attempt_fails(&mut self) -> bool {
        if self.rng.chance(self.config.host_transient) {
            self.stats.host_transients += 1;
            true
        } else {
            false
        }
    }

    /// Does this checkpoint write fail with an injected I/O fault?
    pub fn ckpt_write_fails(&mut self) -> bool {
        if self.rng.chance(self.config.ckpt_write_fail) {
            self.stats.ckpt_write_failures += 1;
            true
        } else {
            false
        }
    }

    /// Fate of one outgoing point-to-point message.
    pub fn message_fault(&mut self) -> MsgFault {
        if self.rng.chance(self.config.msg_drop) {
            self.stats.dropped_messages += 1;
            return MsgFault::Drop;
        }
        self.collective_fault()
    }

    /// Fate of one collective payload (collectives cannot be dropped —
    /// a lost collective is a crash, not a message fault).
    pub fn collective_fault(&mut self) -> MsgFault {
        if self.rng.chance(self.config.msg_corrupt) {
            self.stats.corrupted_messages += 1;
            return MsgFault::Corrupt;
        }
        if self.rng.chance(self.config.msg_delay) {
            self.stats.delayed_messages += 1;
            return MsgFault::Delay(self.config.delay_cycles);
        }
        MsgFault::None
    }

    /// Is this transport connection attempt refused? Each refusal is
    /// counted; callers re-dial with [`FaultPlan::backoff_cycles`].
    pub fn connect_refused(&mut self) -> bool {
        if self.rng.chance(self.config.connect_refuse) {
            self.stats.connect_refusals += 1;
            true
        } else {
            false
        }
    }

    /// Does this JIT-service translation attempt fail with an injected
    /// typed error? A zero rate consumes nothing, so configs predating
    /// the service daemon keep bit-identical streams.
    pub fn translate_fails(&mut self) -> bool {
        if self.rng.chance(self.config.translate_fail) {
            self.stats.translate_failures += 1;
            true
        } else {
            false
        }
    }

    /// Fate of one framed transport message, drawn after its payload
    /// fault. Zero rates consume nothing, so configs predating the
    /// socket-transport faults keep bit-identical streams.
    pub fn transport_fault(&mut self) -> TransportFault {
        if self.rng.chance(self.config.frame_truncate) {
            self.stats.truncated_frames += 1;
            return TransportFault::Truncate;
        }
        if self.rng.chance(self.config.ack_delay) {
            self.stats.delayed_acks += 1;
            return TransportFault::DelayAck(self.config.ack_delay_cycles);
        }
        TransportFault::None
    }

    /// Virtual-cycle backoff before retry number `attempt` (1-based);
    /// doubles per attempt, capped to keep virtual time bounded.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        self.config.retry_backoff_cycles << attempt.saturating_sub(1).min(8)
    }
}

/// Flip a mantissa bit of one payload element — a detectable, non-NaN
/// corruption (bit 22 keeps f32 exponents intact).
pub fn corrupt_f32(payload: &mut [f32]) {
    if payload.is_empty() {
        return;
    }
    let i = payload.len() / 2;
    payload[i] = f32::from_bits(payload[i].to_bits() ^ (1 << 21));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig {
            crash: 0.1,
            msg_drop: 0.2,
            msg_corrupt: 0.2,
            msg_delay: 0.3,
            fuel_exhaust: 0.25,
            ..FaultConfig::seeded(42)
        };
        let mut a = FaultPlan::for_rank(cfg, 3);
        let mut b = FaultPlan::for_rank(cfg, 3);
        for _ in 0..500 {
            assert_eq!(a.crash_at_yield(), b.crash_at_yield());
            assert_eq!(a.message_fault(), b.message_fault());
            assert_eq!(a.slice_fuel(1_000_000), b.slice_fuel(1_000_000));
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.injected() > 0, "rates ~0.2 must fire in 500 draws");
    }

    #[test]
    fn ranks_get_decorrelated_streams() {
        let cfg = FaultConfig {
            crash: 0.5,
            ..FaultConfig::seeded(7)
        };
        let mut a = FaultPlan::for_rank(cfg, 0);
        let mut b = FaultPlan::for_rank(cfg, 1);
        let da: Vec<bool> = (0..64).map(|_| a.crash_at_yield()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.crash_at_yield()).collect();
        assert_ne!(da, db, "per-rank streams must differ");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut p = FaultPlan::new(FaultConfig::seeded(9));
        for _ in 0..100 {
            assert!(!p.crash_at_yield());
            assert!(!p.host_attempt_fails());
            assert!(!p.ckpt_write_fails());
            assert_eq!(p.message_fault(), MsgFault::None);
            assert_eq!(p.slice_fuel(500), 500);
        }
        assert_eq!(p.stats, ResilienceStats::default());
    }

    #[test]
    fn ckpt_write_faults_are_seeded_and_counted() {
        let cfg = FaultConfig {
            ckpt_write_fail: 0.4,
            ..FaultConfig::seeded(21)
        };
        let mut a = FaultPlan::for_rank(cfg, 0);
        let mut b = FaultPlan::for_rank(cfg, 0);
        let da: Vec<bool> = (0..200).map(|_| a.ckpt_write_fails()).collect();
        let db: Vec<bool> = (0..200).map(|_| b.ckpt_write_fails()).collect();
        assert_eq!(da, db, "same seed, same checkpoint I/O faults");
        let fired = da.iter().filter(|&&x| x).count() as u64;
        assert!(fired > 0, "rate 0.4 must fire in 200 draws");
        assert_eq!(a.stats.ckpt_write_failures, fired);
        assert_eq!(a.stats.injected(), fired);
    }

    #[test]
    fn transport_faults_are_seeded_counted_and_stream_safe() {
        // Zero transport rates must not consume the stream: interleaving
        // the new draws with crash draws leaves the crash stream of a
        // pre-transport config bit-identical.
        let cfg = FaultConfig {
            crash: 0.3,
            ..FaultConfig::seeded(5)
        };
        let mut a = FaultPlan::for_rank(cfg, 0);
        let mut b = FaultPlan::for_rank(cfg, 0);
        let da: Vec<bool> = (0..64).map(|_| a.crash_at_yield()).collect();
        let db: Vec<bool> = (0..64)
            .map(|_| {
                assert_eq!(b.transport_fault(), TransportFault::None);
                assert!(!b.connect_refused());
                b.crash_at_yield()
            })
            .collect();
        assert_eq!(da, db, "zero-rate transport draws must be stream-free");

        let cfg = FaultConfig {
            frame_truncate: 0.3,
            ack_delay: 0.3,
            connect_refuse: 0.5,
            ..FaultConfig::seeded(6)
        };
        let mut a = FaultPlan::for_rank(cfg, 1);
        let mut b = FaultPlan::for_rank(cfg, 1);
        let fa: Vec<TransportFault> = (0..200).map(|_| a.transport_fault()).collect();
        let fb: Vec<TransportFault> = (0..200).map(|_| b.transport_fault()).collect();
        assert_eq!(fa, fb, "same seed, same transport faults");
        assert!(a.stats.truncated_frames > 0, "truncate rate 0.3 must fire");
        assert!(a.stats.delayed_acks > 0, "ack-delay rate 0.3 must fire");
        let refusals = (0..64).filter(|_| a.connect_refused()).count() as u64;
        assert!(refusals > 0, "refuse rate 0.5 must fire in 64 draws");
        assert_eq!(a.stats.connect_refusals, refusals);
        assert_eq!(
            a.stats.injected(),
            a.stats.truncated_frames + a.stats.delayed_acks + refusals
        );
        let line = a.stats.to_string();
        assert!(line.contains("refuse") && line.contains("trunc"));
    }

    #[test]
    fn translate_faults_are_seeded_counted_and_stream_safe() {
        // Zero-rate translate draws must not consume the stream: a config
        // predating the service daemon keeps bit-identical crash draws.
        let cfg = FaultConfig {
            crash: 0.3,
            ..FaultConfig::seeded(13)
        };
        let mut a = FaultPlan::for_rank(cfg, 0);
        let mut b = FaultPlan::for_rank(cfg, 0);
        let da: Vec<bool> = (0..64).map(|_| a.crash_at_yield()).collect();
        let db: Vec<bool> = (0..64)
            .map(|_| {
                assert!(!b.translate_fails());
                b.crash_at_yield()
            })
            .collect();
        assert_eq!(da, db, "zero-rate translate draws must be stream-free");

        let cfg = FaultConfig {
            translate_fail: 0.4,
            ..FaultConfig::seeded(14)
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        let fa: Vec<bool> = (0..200).map(|_| a.translate_fails()).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.translate_fails()).collect();
        assert_eq!(fa, fb, "same seed, same translate faults");
        let fired = fa.iter().filter(|&&x| x).count() as u64;
        assert!(fired > 0, "rate 0.4 must fire in 200 draws");
        assert_eq!(a.stats.translate_failures, fired);
        assert_eq!(a.stats.injected(), fired);
        assert!(a.stats.to_string().contains("xlate-fail"));
    }

    #[test]
    fn stats_display_is_one_line() {
        let s = ResilienceStats {
            crashes: 2,
            ckpt_write_failures: 1,
            restarts: 3,
            ..ResilienceStats::default()
        };
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("crash 2"));
        assert!(line.contains("ckpt-io 1"));
        assert!(line.contains("restarts 3"));
    }

    #[test]
    fn fuel_exhaustion_caps_the_slice() {
        let mut p = FaultPlan::new(FaultConfig {
            fuel_exhaust: 1.0,
            ..FaultConfig::seeded(1)
        });
        assert_eq!(p.slice_fuel(1_000_000), EXHAUSTED_SLICE_FUEL);
        assert_eq!(p.slice_fuel(8), 8, "never grants more than asked");
        assert_eq!(p.stats.fuel_exhaustions, 2);
    }

    #[test]
    fn corruption_changes_exactly_one_element() {
        let mut v = vec![1.0f32, 2.0, 3.0];
        corrupt_f32(&mut v);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 3.0);
        assert_ne!(v[1], 2.0);
        assert!(v[1].is_finite(), "corruption must not produce NaN/inf");
    }

    #[test]
    fn restore_resumes_the_exact_cursor() {
        let cfg = FaultConfig {
            crash: 0.3,
            ..FaultConfig::seeded(11)
        };
        let mut a = FaultPlan::for_rank(cfg, 2);
        for _ in 0..10 {
            a.crash_at_yield();
        }
        let mut b = FaultPlan::restore(a.config, a.rng_state(), a.stats);
        for _ in 0..50 {
            assert_eq!(a.crash_at_yield(), b.crash_at_yield());
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn reseed_diverges_but_stays_deterministic() {
        let cfg = FaultConfig {
            crash: 0.5,
            ..FaultConfig::seeded(3)
        };
        let mut a = FaultPlan::for_rank(cfg, 0);
        let mut b = a.clone();
        let mut c = a.clone();
        b.reseed(1);
        c.reseed(1);
        let da: Vec<bool> = (0..64).map(|_| a.crash_at_yield()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.crash_at_yield()).collect();
        let dc: Vec<bool> = (0..64).map(|_| c.crash_at_yield()).collect();
        assert_ne!(da, db, "reseed must move the stream");
        assert_eq!(db, dc, "reseed must be deterministic");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = FaultPlan::new(FaultConfig::seeded(1));
        assert_eq!(p.backoff_cycles(1), 1_000);
        assert_eq!(p.backoff_cycles(2), 2_000);
        assert_eq!(p.backoff_cycles(3), 4_000);
        assert_eq!(p.backoff_cycles(40), 1_000 << 8);
    }
}
