//! Pinned bytes of a sealed [`Machine`] snapshot, a thread payload, and
//! a base and a delta checkpoint-chain link.
//!
//! The machine carries every `ArrStore` and `Val` variant and a
//! [`FaultPlan`] whose config, stream cursor and counters are all
//! non-default literals. The `*_V1` hex was produced by the hand-written
//! `write_fault_plan` / `write_val` before those records moved onto
//! `nir::codec::Wire`; snapshots are persisted (`.wckpt` chains), so a
//! change to the payload region of these strings needs a `CKPT_VERSION`
//! bump.
//!
//! Checkpoints have since moved to container version 2 (word-at-a-time
//! seal digest). The version-1 strings stay beside the current ones and
//! [`container_v2_moved_only_the_version_byte_and_the_digest`] asserts
//! the two agree everywhere else — the written-down reason
//! `CKPT_VERSION` did not move with the container.
//!
//! Container version 3 seals with the four-lane word digest. The
//! version-2 strings stay too, and
//! [`container_v3_moved_only_the_version_byte_and_the_digests`] asserts
//! that only the version byte, the seal digest and a delta's
//! parent-digest field (the parent's seal digest) moved.

use exec::ckpt;
use exec::{ArrStore, FaultConfig, FaultPlan, Machine, ResilienceStats, Thread, Val};
use nir::{FuncBuilder, FuncKind, Instr, Program, Ty};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn machine() -> Machine {
    let mut m = Machine::new();
    m.mem.alloc(ArrStore::I32(vec![-1, 2]));
    m.mem.alloc(ArrStore::I64(vec![i64::MIN, 3]));
    m.mem.alloc(ArrStore::F32(vec![1.5, -2.25]));
    m.mem.alloc(ArrStore::F64(vec![0.1]));
    m.mem.alloc(ArrStore::Bool(vec![true, false]));
    m.mem.alloc(ArrStore::Freed);
    let obj = m.objs.alloc(7, 2);
    m.objs.set(obj, 0, Val::F64(0.75)).unwrap();
    m.objs.set(obj, 1, Val::Arr(2)).unwrap();
    m.globals = vec![
        Val::I32(-9),
        Val::I64(1 << 33),
        Val::F32(0.5),
        Val::Bool(true),
        Val::Obj(obj),
        Val::Unit,
    ];
    m.output = vec!["hello".into(), "42".into()];
    m.counters.instrs = 1234;
    m.counters.cycles = 56789;
    let config = FaultConfig {
        seed: 0x0102_0304_0506_0708,
        crash: 0.5,
        fuel_exhaust: 0.25,
        host_transient: 0.125,
        msg_drop: 0.0625,
        msg_corrupt: 0.75,
        msg_delay: 0.375,
        ckpt_write_fail: 0.1875,
        connect_refuse: 0.875,
        frame_truncate: 0.4375,
        ack_delay: 0.3125,
        translate_fail: 0.9375,
        delay_cycles: 50_001,
        ack_delay_cycles: 20_002,
        max_host_retries: 5,
        retry_backoff_cycles: 1_003,
    };
    let stats = ResilienceStats {
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
    m.fault = Some(FaultPlan::restore(config, 0xA1B2_C3D4_E5F6_0718, stats));
    m
}

const MACHINE_HEX: &str = "574a415203bb0100000000000005a1060000000002000000ffffffff0200000001020000000000000000000080030000000000000002020000000000c03f000010c003010000009a9999999999b93f040200000001000501000000070000000200000003000000000000e83f05020000000600000000f7ffffff010000000002000000020000003f0401060000000007020000000500000068656c6c6f020000003432d204000000000000d5dd000000000000010807060504030201000000000000e03f000000000000d03f000000000000c03f000000000000b03f000000000000e83f000000000000d83f000000000000c83f000000000000ec3f000000000000dc3f000000000000d43f000000000000ee3f51c3000000000000224e00000000000005000000eb030000000000001807f6e5d4c3b2a10100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000010000000000000001100000000000000120000000000000082209da273592895";
const MACHINE_HEX_V2: &str = "574a415202bb0100000000000005a1060000000002000000ffffffff0200000001020000000000000000000080030000000000000002020000000000c03f000010c003010000009a9999999999b93f040200000001000501000000070000000200000003000000000000e83f05020000000600000000f7ffffff010000000002000000020000003f0401060000000007020000000500000068656c6c6f020000003432d204000000000000d5dd000000000000010807060504030201000000000000e03f000000000000d03f000000000000c03f000000000000b03f000000000000e83f000000000000d83f000000000000c83f000000000000ec3f000000000000dc3f000000000000d43f000000000000ee3f51c3000000000000224e00000000000005000000eb030000000000001807f6e5d4c3b2a10100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000011000000000000001200000000000000ffd87e6e74c506b1";
const MACHINE_HEX_V1: &str = "574a415201bb0100000000000005a1060000000002000000ffffffff0200000001020000000000000000000080030000000000000002020000000000c03f000010c003010000009a9999999999b93f040200000001000501000000070000000200000003000000000000e83f05020000000600000000f7ffffff010000000002000000020000003f0401060000000007020000000500000068656c6c6f020000003432d204000000000000d5dd000000000000010807060504030201000000000000e03f000000000000d03f000000000000c03f000000000000b03f000000000000e83f000000000000d83f000000000000c83f000000000000ec3f000000000000dc3f000000000000d43f000000000000ee3f51c3000000000000224e00000000000005000000eb030000000000001807f6e5d4c3b2a10100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000011000000000000001200000000000000b707a954d7729ff6";

#[test]
fn machine_snapshot_bytes_are_pinned() {
    let m = machine();
    let bytes = m.snapshot();
    assert_eq!(hex(&bytes), MACHINE_HEX);
    let back = Machine::restore(&bytes).expect("restore");
    assert_eq!(back.fault, m.fault);
    assert_eq!(back.snapshot(), bytes);
}

const THREAD_HEX: &str = "574a415203350000000000000005b70200000001000000020000000200000002000020400005000000000000000000000000010000000005000000010100000000007c371677d567cb96";
const THREAD_HEX_V2: &str = "574a415202350000000000000005b70200000001000000020000000200000002000020400005000000000000000000000000010000000005000000010100000000005a89d288670254e7";
const THREAD_HEX_V1: &str = "574a415201350000000000000005b7020000000100000002000000020000000200002040000500000000000000000000000001000000000500000001010000000000c803eb9002cf1b5e";

#[test]
fn thread_payload_bytes_are_pinned() {
    let mut callee = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    callee.emit(Instr::Ret(Some(0)));
    let mut p = Program::default();
    let g = p.add_func(callee.finish().unwrap());
    let mut fb = FuncBuilder::new("f", vec![Ty::F32], Some(Ty::I32), FuncKind::Host);
    let a = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(a, 5));
    fb.emit(Instr::Call {
        func: g,
        args: vec![a],
        dst: Some(a),
    });
    fb.emit(Instr::Ret(Some(a)));
    let f = p.add_func(fb.finish().unwrap());

    // Stop inside the callee so the payload holds two frames, one with a
    // return register and one without.
    let image = exec::Image::build(&p).unwrap();
    let mut t = Thread::new(&p, f, &[Val::F32(2.5)]).unwrap();
    let mut m = Machine::new();
    exec::run(&mut t, &image, &mut m, 2).unwrap();
    assert_eq!(t.depth(), 2);

    let mut w = ckpt::begin(ckpt::TAG_WORLD);
    ckpt::write_thread(&mut w, &t, &p);
    let bytes = ckpt::finish(w);
    assert_eq!(hex(&bytes), THREAD_HEX);
    let mut r = ckpt::open(&bytes, ckpt::TAG_WORLD).unwrap();
    let back = ckpt::read_thread(&mut r, &p).unwrap();
    assert!(r.is_at_end());
    let mut w = ckpt::begin(ckpt::TAG_WORLD);
    ckpt::write_thread(&mut w, &back, &p);
    assert_eq!(ckpt::finish(w), bytes);
}

#[test]
fn container_v2_moved_only_the_version_byte_and_the_digest() {
    for (v2, v1) in [
        (MACHINE_HEX_V2, MACHINE_HEX_V1),
        (THREAD_HEX_V2, THREAD_HEX_V1),
    ] {
        assert_eq!(v2.len(), v1.len());
        // Two hex digits per byte: magic, version byte 4, the rest up to
        // the 8-byte digest.
        let digest = v2.len() - 16;
        assert_eq!(v2[..8], v1[..8]);
        assert_eq!((&v2[8..10], &v1[8..10]), ("02", "01"));
        assert_eq!(v2[10..digest], v1[10..digest], "no record layout moved");
        assert_ne!(v2[digest..], v1[digest..]);
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// An old `.wckpt` — the same payload in a version-1 container — is
/// version skew, which every restore path degrades to a cold start.
#[test]
fn version_1_sealed_snapshot_is_version_skew() {
    let v3 = machine().snapshot();
    let (payload, _) = nir::codec::unseal_ckpt(&v3).unwrap();
    // `seal` frames with the byte digest every version-1 container had;
    // only its version byte moved on (artifacts are version 2 now).
    let mut v1 = nir::codec::seal(payload);
    v1[4] = 1;
    assert_eq!(hex(&v1), MACHINE_HEX_V1);
    assert_eq!(
        Machine::restore(&v1).err(),
        Some(ckpt::CkptError::VersionSkew {
            found: 1,
            expected: 3
        })
    );
}

#[test]
fn container_v3_moved_only_the_version_byte_and_the_digests() {
    // Offsets in hex digits: the version byte is byte 4; a link's parent
    // digest is payload bytes 10..18 (after version, kind and seq), and
    // the payload starts after the 13-byte header.
    let parent_digest = 2 * (13 + 10)..2 * (13 + 18);
    for (name, v3, v2) in [
        ("machine", MACHINE_HEX, MACHINE_HEX_V2),
        ("thread", THREAD_HEX, THREAD_HEX_V2),
        ("base link", BASE_LINK_HEX, BASE_LINK_HEX_V2),
        ("delta link", DELTA_LINK_HEX, DELTA_LINK_HEX_V2),
    ] {
        assert_eq!(v3.len(), v2.len(), "{name}");
        let digest = v3.len() - 16;
        assert_eq!(v3[..8], v2[..8], "{name}");
        assert_eq!((&v3[8..10], &v2[8..10]), ("03", "02"), "{name}");
        assert_ne!(v3[digest..], v2[digest..], "{name}");
        let (mut a, mut b) = (v3[10..digest].to_string(), v2[10..digest].to_string());
        if name == "delta link" {
            let field = parent_digest.start - 10..parent_digest.end - 10;
            assert_ne!(a[field.clone()], b[field.clone()], "{name}");
            // The field is the base link's seal digest, both times.
            assert_eq!(
                &a[field.clone()],
                &BASE_LINK_HEX[BASE_LINK_HEX.len() - 16..]
            );
            assert_eq!(
                &b[field.clone()],
                &BASE_LINK_HEX_V2[BASE_LINK_HEX_V2.len() - 16..]
            );
            a.replace_range(field.clone(), "");
            b.replace_range(field, "");
        }
        assert_eq!(a, b, "{name}: no record layout moved");
    }
}

/// A `.wckpt` sealed before the four-lane digest is version skew too,
/// snapshot and chain link alike.
#[test]
fn version_2_sealed_checkpoints_are_version_skew() {
    let skew = Some(ckpt::CkptError::VersionSkew {
        found: 2,
        expected: 3,
    });
    assert_eq!(Machine::restore(&unhex(MACHINE_HEX_V2)).err(), skew);
    let out = ckpt::chain::resolve_prefix(&[unhex(BASE_LINK_HEX_V2), unhex(DELTA_LINK_HEX_V2)]);
    assert_eq!((out.valid_links, out.error), (0, skew));
}

/// A fixed section set, then the same set with section 1 patched in one
/// byte and section 2 grown: a base link and a delta link holding one
/// `Patch` and one `Full` change, with section 0 unchanged.
fn chain_links() -> (Vec<u8>, Vec<u8>) {
    let mesh: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
    let mut touched = mesh.clone();
    touched[10] ^= 0x5A;
    let s0 = vec![b"header-0".to_vec(), mesh, b"queue".to_vec()];
    let s1 = vec![b"header-0".to_vec(), touched, b"queue-grew".to_vec()];
    let mut chain = ckpt::chain::ChainState::new();
    let base = chain.push(s0.into_iter().map(Into::into).collect(), false);
    let delta = chain.push(s1.into_iter().map(Into::into).collect(), false);
    (base.bytes, delta.bytes)
}

const BASE_LINK_HEX: &str = "574a4152036f0000000000000005c10000000000000000000000000000000003000000080000006865616465722d304000000000254a6f94b9de03284d7297bce1062b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea3c8ed12375c81a6cbf0153a5f84a9cef3183d6287acd1f61b0500000071756575655651db1a6340332c";
const BASE_LINK_HEX_V2: &str = "574a4152026f0000000000000005c10000000000000000000000000000000003000000080000006865616465722d304000000000254a6f94b9de03284d7297bce1062b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea3c8ed12375c81a6cbf0153a5f84a9cef3183d6287acd1f61b0500000071756575656465e20f1c669e20";
// Sections 3, changed 2: section 1 as a `Patch` (kind 1) of one run of
// one byte at offset 10, section 2 as a `Full` (kind 0) of 10 bytes.
const DELTA_LINK_HEX: &str = "574a415203430000000000000005c301000000000000005651db1a6340332c03000000020000000100000001010000000a00000000000000010000002802000000000a00000071756575652d677265776c498e0e3d067aec";
const DELTA_LINK_HEX_V2: &str = "574a415202430000000000000005c301000000000000006465e20f1c669e2003000000020000000100000001010000000a00000000000000010000002802000000000a00000071756575652d677265774852e600f2fdab83";

#[test]
fn chain_link_bytes_are_pinned() {
    let (base, delta) = chain_links();
    assert_eq!(hex(&base), BASE_LINK_HEX);
    assert_eq!(hex(&delta), DELTA_LINK_HEX);
}
