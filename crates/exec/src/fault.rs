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
    /// Nothing re-sends it: a rank that waits for it stalls, and once
    /// every rank waits the run ends in `Deadlock`, which no restart
    /// recovers (`mpi_sim`'s `World::with_timeout` fires only while some
    /// rank still runs). ROADMAP item 17 (a) is the fix.
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
    /// the frame is discarded typed, and the message is lost exactly like
    /// a dropped one ([`msg_drop`](FaultConfig::msg_drop)): a rank that
    /// waits for it stalls, as described there.
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

/// One fault question the MPI scheduler asks a rank's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// An outgoing point-to-point message: its payload (drop, corrupt,
    /// delay), then, unless the payload was dropped, its frame
    /// (truncate, ack delay).
    Send,
    /// A collective contribution or broadcast payload: corrupt, then
    /// delay (a lost collective is a crash, not a message fault).
    Collective,
    /// A rank (re-)joining the fabric: refusals, each re-dialed with
    /// [`FaultPlan::backoff_cycles`], until one attempt succeeds or
    /// [`MAX_CONNECT_RETRIES`] are spent.
    Connect,
    /// One checkpoint write.
    CkptWrite,
}

/// What a [`Draw`] decided; the default is "nothing happens".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fate {
    /// The message was dropped or its frame truncated, the connect
    /// budget ran out, or the checkpoint write failed.
    pub lost: bool,
    /// One element of the payload has a mantissa bit flipped.
    pub corrupt: bool,
    /// Virtual cycles the delivery (or, for a connect, the rank) waits.
    pub delay: u64,
}

nir::wire_enum!(Draw { 0 = Send, 1 = Collective, 2 = Connect, 3 = CkptWrite });
nir::wire_struct!(Fate {
    lost,
    corrupt,
    delay
});

/// Connection attempts per rank before an injected refusal storm is a
/// lost connect (a typed error) instead of another backoff.
pub const MAX_CONNECT_RETRIES: u32 = 16;

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

    /// Draw one fault decision. Zero rates consume nothing, so configs
    /// predating a fault kind keep bit-identical streams.
    pub fn draw(&mut self, kind: Draw) -> Fate {
        let mut fate = Fate::default();
        match kind {
            Draw::Send => {
                if self.rng.chance(self.config.msg_drop) {
                    self.stats.dropped_messages += 1;
                    fate.lost = true;
                    return fate;
                }
                self.payload_fault(&mut fate);
                if self.rng.chance(self.config.frame_truncate) {
                    self.stats.truncated_frames += 1;
                    fate.lost = true;
                } else if self.rng.chance(self.config.ack_delay) {
                    self.stats.delayed_acks += 1;
                    fate.delay += self.config.ack_delay_cycles;
                }
            }
            Draw::Collective => self.payload_fault(&mut fate),
            Draw::Connect => {
                let mut refused = 0;
                while self.rng.chance(self.config.connect_refuse) {
                    self.stats.connect_refusals += 1;
                    refused += 1;
                    if refused >= MAX_CONNECT_RETRIES {
                        fate.lost = true;
                        break;
                    }
                    fate.delay += self.backoff_cycles(refused);
                }
            }
            Draw::CkptWrite => {
                if self.rng.chance(self.config.ckpt_write_fail) {
                    self.stats.ckpt_write_failures += 1;
                    fate.lost = true;
                }
            }
        }
        fate
    }

    /// A payload's corruption, else its delay.
    fn payload_fault(&mut self, fate: &mut Fate) {
        if self.rng.chance(self.config.msg_corrupt) {
            self.stats.corrupted_messages += 1;
            fate.corrupt = true;
        } else if self.rng.chance(self.config.msg_delay) {
            self.stats.delayed_messages += 1;
            fate.delay += self.config.delay_cycles;
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
            assert_eq!(a.draw(Draw::Send), b.draw(Draw::Send));
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
            for kind in [Draw::Send, Draw::Collective, Draw::Connect, Draw::CkptWrite] {
                assert_eq!(p.draw(kind), Fate::default());
            }
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
        let da: Vec<bool> = (0..200).map(|_| a.draw(Draw::CkptWrite).lost).collect();
        let db: Vec<bool> = (0..200).map(|_| b.draw(Draw::CkptWrite).lost).collect();
        assert_eq!(da, db, "same seed, same checkpoint I/O faults");
        let fired = da.iter().filter(|&&x| x).count() as u64;
        assert!(fired > 0, "rate 0.4 must fire in 200 draws");
        assert_eq!(a.stats.ckpt_write_failures, fired);
        assert_eq!(a.stats.injected(), fired);
    }

    #[test]
    fn frame_and_connect_faults_are_seeded_counted_and_stream_safe() {
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
                assert_eq!(b.draw(Draw::Send), Fate::default());
                assert_eq!(b.draw(Draw::Connect), Fate::default());
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
        let fa: Vec<Fate> = (0..200).map(|_| a.draw(Draw::Send)).collect();
        let fb: Vec<Fate> = (0..200).map(|_| b.draw(Draw::Send)).collect();
        assert_eq!(fa, fb, "same seed, same transport faults");
        assert!(a.stats.truncated_frames > 0, "truncate rate 0.3 must fire");
        assert!(a.stats.delayed_acks > 0, "ack-delay rate 0.3 must fire");
        // Each connect re-dials until an attempt succeeds, charging the
        // backoff of every refused one.
        for _ in 0..64 {
            let before = a.stats.connect_refusals;
            let fate = a.draw(Draw::Connect);
            let refused = (a.stats.connect_refusals - before) as u32;
            let backoff = (1..=refused).map(|i| a.backoff_cycles(i)).sum();
            assert_eq!(
                fate,
                Fate {
                    delay: backoff,
                    ..Fate::default()
                }
            );
        }
        let refusals = a.stats.connect_refusals;
        assert!(refusals > 0, "refuse rate 0.5 must fire in 64 connects");
        assert_eq!(a.stats.connect_refusals, refusals);
        assert_eq!(
            a.stats.injected(),
            a.stats.truncated_frames + a.stats.delayed_acks + refusals
        );
        let line = a.stats.to_string();
        assert!(line.contains(&format!("connect_refusals {refusals} · ")));
        let truncated = a.stats.truncated_frames;
        assert!(line.contains(&format!("truncated_frames {truncated} · ")));
    }

    #[test]
    fn a_connect_refused_past_the_budget_is_lost() {
        let mut p = FaultPlan::new(FaultConfig {
            connect_refuse: 1.0,
            ..FaultConfig::seeded(8)
        });
        let backoff = (1..MAX_CONNECT_RETRIES).map(|i| p.backoff_cycles(i)).sum();
        let fate = p.draw(Draw::Connect);
        assert_eq!(
            fate,
            Fate {
                lost: true,
                delay: backoff,
                ..Fate::default()
            }
        );
        assert_eq!(p.stats.connect_refusals, u64::from(MAX_CONNECT_RETRIES));
    }

    #[test]
    fn a_dropped_send_draws_no_frame() {
        // Where a send is dropped, the stream cursor is where the payload
        // draw alone (the same plan without frame rates) leaves it.
        let cfg = FaultConfig {
            msg_drop: 0.5,
            msg_corrupt: 0.3,
            msg_delay: 0.3,
            frame_truncate: 0.5,
            ack_delay: 0.5,
            ..FaultConfig::seeded(17)
        };
        let payload_only = FaultConfig {
            frame_truncate: 0.0,
            ack_delay: 0.0,
            ..cfg
        };
        let mut a = FaultPlan::for_rank(cfg, 1);
        let mut drops = 0;
        for _ in 0..64 {
            let before = a.rng_state();
            let dropped = a.stats.dropped_messages;
            let fate = a.draw(Draw::Send);
            if a.stats.dropped_messages > dropped {
                drops += 1;
                assert_eq!(
                    fate,
                    Fate {
                        lost: true,
                        ..Fate::default()
                    }
                );
                let mut alone =
                    FaultPlan::restore(payload_only, before, ResilienceStats::default());
                assert_eq!(alone.draw(Draw::Send), fate);
                assert_eq!(
                    alone.rng_state(),
                    a.rng_state(),
                    "a frame draw followed a drop"
                );
            }
        }
        assert!(drops > 0, "drop rate 0.5 must fire in 64 sends");
    }

    #[test]
    fn a_corrupted_then_truncated_send_is_lost() {
        let mut p = FaultPlan::new(FaultConfig {
            msg_corrupt: 1.0,
            msg_delay: 1.0,
            frame_truncate: 1.0,
            ..FaultConfig::seeded(4)
        });
        let fate = p.draw(Draw::Send);
        assert_eq!(
            fate,
            Fate {
                lost: true,
                corrupt: true,
                delay: 0
            }
        );
        assert_eq!(p.stats.corrupted_messages, 1);
        assert_eq!(p.stats.truncated_frames, 1);
        assert_eq!(p.stats.injected(), 2);
        // A collective is corrupted before it can be delayed.
        let fate = p.draw(Draw::Collective);
        assert_eq!(
            fate,
            Fate {
                corrupt: true,
                ..Fate::default()
            }
        );
        assert_eq!(p.stats.delayed_messages, 0);
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
        let line = a.stats.to_string();
        assert!(line.contains(&format!("translate_failures {fired} · ")));
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
        assert!(line.starts_with("crashes 2 · "));
        assert!(line.contains(" · ckpt_write_failures 1 · "));
        assert!(line.contains(" · restarts 3 · "));
    }

    #[test]
    fn stats_fields_are_the_wire_order() {
        let s = ResilienceStats {
            crashes: 1,
            fuel_exhaustions: 2,
            host_transients: 3,
            host_retries: 4,
            dropped_messages: 5,
            corrupted_messages: 6,
            delayed_messages: 7,
            ckpt_write_failures: 8,
            connect_refusals: 9,
            truncated_frames: 10,
            delayed_acks: 11,
            connect_retries: 12,
            translate_failures: 13,
            timeouts: 14,
            degraded_jits: 15,
            checkpoints_taken: 16,
            restarts: 17,
            overlapped_rounds: 18,
        };
        let values: Vec<u64> = s.fields().map(|(_, v)| v).collect();
        assert_eq!(values, (1..=18).collect::<Vec<u64>>());
        let le: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(s.to_wire(), le);
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
