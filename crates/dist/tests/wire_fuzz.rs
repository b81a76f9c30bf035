//! One mutation fuzzer for every payload decoder, written once over
//! [`Wire`]: whatever bytes arrive, decoding returns a typed error or a
//! value — it never panics, never allocates for a length the input does
//! not back, and never accepts a truncated payload.
//!
//! Inputs come from a seeded xorshift generator (as in
//! `tests/property_tests.rs`), so a failure is a reproducer.

mod samples;

use std::fmt::Debug;

use jitd::client::jit_request;
use jitd::proto::{Arg, Outcome, PassTotals, Reply, ServiceStats, ShedReason};
use nir::codec::{CodecError, Wire};

/// Deterministic xorshift64* PRNG — same sequence on every run.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A decoded value must survive its own re-encoding. Compared through
/// `Debug` because mutated floats can be NaN.
fn assert_stable<T: Wire + Debug>(value: &T) {
    let again = T::from_wire(&value.to_wire()).expect("a re-encoded value decodes");
    assert_eq!(format!("{again:?}"), format!("{value:?}"));
}

fn fuzz<T: Wire + Debug>(samples: &[T]) {
    let mut rng = Rng(0x5EED_F022 ^ samples.len() as u64);
    for sample in samples {
        let bytes = sample.to_wire();
        let back = T::from_wire(&bytes).expect("a sample decodes");
        assert_eq!(format!("{back:?}"), format!("{sample:?}"));
        for cut in 0..bytes.len() {
            assert!(
                T::from_wire(&bytes[..cut]).is_err(),
                "{cut}-byte prefix of {sample:?} decoded"
            );
        }
        // A list of `T` whose length prefix promises more than the input
        // holds is refused before anything is allocated for it.
        let mut list = u32::MAX.to_le_bytes().to_vec();
        list.extend_from_slice(&bytes);
        assert!(matches!(
            Vec::<T>::from_wire(&list),
            Err(CodecError::Corrupt { .. })
        ));
    }
    for _ in 0..2_000 {
        let mut bytes = samples[rng.below(samples.len())].to_wire();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 + rng.below(255) as u8;
        if let Ok(value) = T::from_wire(&bytes) {
            assert_stable(&value);
        }
    }
    // Every aligned-or-not 4-byte window forced to u32::MAX: whichever of
    // them are length prefixes must fail typed, not allocate 4 GiB.
    for sample in samples {
        let bytes = sample.to_wire();
        for at in 0..bytes.len().saturating_sub(3) {
            let mut huge = bytes.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            if let Ok(value) = T::from_wire(&huge) {
                assert_stable(&value);
            }
        }
    }
}

#[test]
fn dist_requests_and_responses() {
    fuzz(&samples::requests());
    fuzz(&samples::responses());
}

#[test]
fn jitd_requests_and_replies() {
    use jitd::proto::Request;
    fuzz(&[
        Request::Jit(jit_request(
            "a.jl",
            "class A { }",
            "A",
            "run",
            vec![Arg::I32(7), Arg::F32(1.5), Arg::F32Arr(vec![1.0, 2.0])],
        )),
        Request::Stats,
        Request::Shutdown,
    ]);
    let stats = ServiceStats {
        admitted: 10,
        completed: 8,
        shed_deadline: 1,
        bad_frames: 2,
        resilience: samples::resilience(),
        passes: vec![PassTotals {
            pass: "inline".into(),
            wall_us: 120,
            instrs_before: 40,
            instrs_after: 22,
        }],
        ..ServiceStats::default()
    };
    fuzz(&[
        Reply::HelloOk { proto: 0x0305 },
        Reply::Done(Outcome {
            result: Some(exec::Val::F64(2.5)),
            translated: true,
            followed: false,
            compile_us: 900,
            run_us: 50,
        }),
        Reply::Shed {
            reason: ShedReason::OverQuota,
            message: "tenant is at its quota".into(),
        },
        Reply::Err {
            message: "injected translate failure".into(),
        },
        Reply::Stats(Box::new(stats)),
        Reply::Bye,
    ]);
}

#[test]
fn embedded_records() {
    fuzz(&samples::sim_errors());
    fuzz(&samples::ckpt_errors());
    fuzz(&[samples::fault_config()]);
    fuzz(&[samples::resilience()]);
}
