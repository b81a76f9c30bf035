//! On-disk artifact format coverage: a committed golden fixture decodes
//! bit-identically, and every corruption mode (truncation, bit flips,
//! version skew, bad magic) is rejected with a typed error — never a
//! panic. The fixture pins the byte layout: if an encoding change breaks
//! decoding of existing stores, these tests fail until [`nir::codec::VERSION`]
//! is bumped and the fixture regenerated (see `regenerate_golden_fixture`).

use std::path::PathBuf;
use std::sync::Arc;

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::compile_str;
use jvm::{Jvm, Value};
use nir::codec::{CodecError, VERSION};
use nir::OptConfig;
use translator::{translate, TransConfig, Translated};
use wootinj::{build_table, JitOptions, WootinJ};

const APP: &str = "
    @WootinJ interface Stepper { float step(float x, int i); }
    @WootinJ final class Axpy implements Stepper {
      float a; float b;
      Axpy(float a0, float b0) { a = a0; b = b0; }
      float step(float x, int i) { return a * x + b * i; }
    }
    @WootinJ final class Fix {
      Stepper s;
      Fix(Stepper s0) { s = s0; }
      float run(float[] data, int steps) {
        for (int t = 0; t < steps; t++) {
          for (int i = 0; i < data.length; i++) { data[i] = s.step(data[i], i); }
        }
        float acc = 0f;
        for (int i = 0; i < data.length; i++) { acc += data[i]; }
        return acc;
      }
    }";

fn fixture_path() -> PathBuf {
    fixture("golden.wjar")
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn translate_sample() -> Translated {
    let table = compile_str(APP).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let stepper = jvm
        .new_instance("Axpy", &[Value::Float(0.5), Value::Float(0.25)])
        .unwrap();
    let fix = jvm.new_instance("Fix", &[stepper]).unwrap();
    let data = jvm.new_f32_array(&[1.0, 2.0, 3.0]);
    translate(
        &table,
        &jvm,
        &fix,
        "run",
        &[data, Value::Int(2)],
        TransConfig::full(),
    )
    .unwrap()
}

/// One-time fixture (re)generation — run with
/// `cargo test -p translator -- --ignored regenerate_golden_fixture`
/// after any intentional format change (and bump `VERSION`).
#[test]
#[ignore = "writes the committed fixture; run explicitly after format changes"]
fn regenerate_golden_fixture() {
    let bytes = translate_sample().encode();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), &bytes).unwrap();
}

#[test]
fn golden_fixture_decodes_bit_identically() {
    let bytes = std::fs::read(fixture_path()).expect(
        "missing golden fixture — run `cargo test -p translator -- --ignored regenerate_golden_fixture`",
    );
    let decoded = Translated::decode(&bytes).expect("golden artifact must decode");
    // decode → encode reproduces the committed bytes exactly; this is the
    // determinism the disk store and rank-0 broadcast rely on.
    assert_eq!(decoded.encode(), bytes, "re-encoded fixture differs");
    decoded.program.verify().expect("decoded program is valid");
    // The decoded artifact is semantically the fixture workload: a fully
    // specialized entry with flattened bindings.
    let fresh = translate_sample();
    assert_eq!(decoded.mode, fresh.mode);
    assert_eq!(decoded.bindings, fresh.bindings);
    assert_eq!(decoded.program.funcs.len(), fresh.program.funcs.len());
    for (d, f) in decoded.program.funcs.iter().zip(&fresh.program.funcs) {
        assert_eq!(d.name, f.name);
        assert_eq!(d.code, f.code);
    }
    assert_eq!(decoded.entry, fresh.entry);
    assert_eq!(decoded.uses_mpi, fresh.uses_mpi);
    assert_eq!(decoded.uses_gpu, fresh.uses_gpu);
}

/// Two translations of one program in one process encode to the same
/// bytes: the artifact holds what translation decided, not how long the
/// optimizer took deciding it.
#[test]
fn encode_is_a_pure_function_of_the_translation() {
    assert_eq!(translate_sample().encode(), translate_sample().encode());
    let preset = JitOptions::wootinj().config.opt;
    assert_eq!(diffusion(preset).encode(), diffusion(preset).encode());
}

/// A machine-thread checkpoint (`exec/tests/ckpt_golden.rs`'s
/// `THREAD_HEX`): the artifact container and a sound seal around a
/// payload that is no artifact.
const CHECKPOINT_HEX: &str = "574a415203350000000000000005b70200000001000000020000000200000002000020400005000000000000000000000000010000000005000000010100000000007c371677d567cb96";

/// Bytes a disk store may hold under an artifact's name but must not
/// serve: the retired layouts' `golden.wjar`, kept byte for byte
/// (version 1: pass profiles and two zero slots in the payload; version
/// 2: today's payload under a byte-per-step seal), and a checkpoint.
/// Each is a decode failure, which the disk tier counts, deletes and
/// re-translates over.
#[test]
fn a_version_1_artifact_is_a_counted_disk_miss() {
    use translator::{CacheKey, EntrySpec};
    use wootinj::cache::{artifact_path, CacheBackend, DiskStore};

    let checkpoint: Vec<u8> = (0..CHECKPOINT_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&CHECKPOINT_HEX[i..i + 2], 16).unwrap())
        .collect();
    let old = [
        (
            "golden_v1.wjar",
            std::fs::read(fixture("golden_v1.wjar")).unwrap(),
        ),
        (
            "golden_v2.wjar",
            std::fs::read(fixture("golden_v2.wjar")).unwrap(),
        ),
        ("a checkpoint", checkpoint),
    ];
    for (found, (name, bytes)) in [1, 2].into_iter().zip(&old) {
        assert_eq!(
            Translated::decode(bytes).err(),
            Some(CodecError::VersionSkew {
                found,
                expected: VERSION
            }),
            "{name}"
        );
    }
    assert!(matches!(
        Translated::decode(&old[2].1),
        Err(CodecError::Corrupt { .. })
    ));

    let table = build_table(&[("app.jl", APP)]).unwrap();
    let jit_sample = |dir: &TempDir| {
        let mut env = WootinJ::new(&table).unwrap();
        let stepper = env
            .new_instance("Axpy", &[Value::Float(0.5), Value::Float(0.25)])
            .unwrap();
        let fix = env.new_instance("Fix", &[stepper]).unwrap();
        let data = env.new_f32_array(&[1.0, 2.0, 3.0]);
        let opts = JitOptions::wootinj().with_disk_cache(&dir.0);
        env.jit(&fix, "run", &[data, Value::Int(2)], opts).unwrap();
        env.cache_stats()
    };
    let cold_dir = TempDir::new("cold-jit");
    jit_sample(&cold_dir);
    let files: Vec<PathBuf> = std::fs::read_dir(&cold_dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wjar"))
        .collect();
    assert_eq!(files.len(), 1);
    let cold = std::fs::read(&files[0]).unwrap();

    for (name, bytes) in &old {
        // The store: one decode failure, a miss, and the file gone.
        let dir = TempDir::new("old-store");
        let key = CacheKey::new(
            EntrySpec::Opaque {
                class: jlang::types::ClassId(1),
                method: 0,
                arity: 2,
            },
            TransConfig::full(),
            vec![],
        );
        let path = artifact_path(&dir.0, &key);
        std::fs::write(&path, bytes).unwrap();
        let mut store = DiskStore::open(&dir.0).unwrap();
        assert!(store.lookup(&key).is_none(), "{name}");
        let stats = store.stats();
        assert_eq!((stats.decode_failures, stats.disk_misses), (1, 1), "{name}");
        assert!(!path.exists(), "{name}: the file is removed");

        // The facade: a jit whose key holds these bytes translates cold
        // and persists the same bytes as a jit into an empty store.
        std::fs::write(&files[0], bytes).unwrap();
        let stats = jit_sample(&cold_dir);
        assert_eq!(
            (stats.decode_failures, stats.disk_hits, stats.translations),
            (1, 0, 1),
            "{name}"
        );
        assert_eq!(std::fs::read(&files[0]).unwrap(), cold, "{name}");
    }
}

/// A directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("artifact-format-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn truncated_artifacts_are_rejected_at_every_length() {
    let bytes = translate_sample().encode();
    for n in 0..bytes.len() {
        match Translated::decode(&bytes[..n]) {
            Err(CodecError::Truncated { .. }) | Err(CodecError::BadMagic) => {}
            other => panic!("prefix of {n} bytes decoded as {other:?}"),
        }
    }
}

#[test]
fn bit_flips_are_rejected_with_a_typed_error() {
    let bytes = translate_sample().encode();
    // Flip one bit in every 97th byte (cheap full-coverage sweep) — the
    // digest or a discriminant check must catch each, and none may panic.
    for i in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        match Translated::decode(&bad) {
            Ok(_) => panic!("bit flip at byte {i} decoded successfully"),
            Err(
                CodecError::Corrupt { .. }
                | CodecError::BadMagic
                | CodecError::VersionSkew { .. }
                | CodecError::Truncated { .. },
            ) => {}
        }
    }
}

#[test]
fn version_skew_is_rejected_with_found_and_expected() {
    let mut bytes = translate_sample().encode();
    bytes[4] = VERSION + 9;
    match Translated::decode(&bytes) {
        Err(CodecError::VersionSkew { found, expected }) => {
            assert_eq!(found, VERSION + 9);
            assert_eq!(expected, VERSION);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn arbitrary_garbage_is_rejected_as_bad_magic() {
    assert!(matches!(
        Translated::decode(b"definitely not an artifact"),
        Err(CodecError::BadMagic)
    ));
    assert!(matches!(
        Translated::decode(&[]),
        Err(CodecError::Truncated { .. })
    ));
}

/// `bench`'s `incr_sources(8)` text (eight 192-statement stage classes
/// plus the `App` that sums them), frozen as a fixture: its bodies lower
/// to straight-line blocks thousands of instructions long, which
/// `golden.wjar` (a 4 KB program) does not have.
const PIPELINE8: &str = include_str!("fixtures/pipeline8.jl");

fn jit_options(opt: OptConfig) -> JitOptions {
    let mut opts = JitOptions::wootinj();
    opts.config.opt = opt;
    opts
}

/// FNV-1a of the unsealed artifact payload (what translation decided;
/// the container's seal belongs to the store) and the instruction count.
fn digest_and_count(t: &Translated) -> (u64, usize) {
    let sealed = t.encode();
    let payload = nir::codec::unseal(&sealed).expect("a fresh artifact unseals");
    (nir::fnv1a64(payload), t.program.instr_count())
}

fn diffusion(opt: OptConfig) -> Arc<Translated> {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner = StencilApp::compose(
        &mut env,
        StencilPlatform::CpuMpi,
        StencilApp::default_model(),
    )
    .unwrap();
    let args = [
        Value::Int(16),
        Value::Int(16),
        Value::Int(16),
        Value::Int(2),
    ];
    env.jit(&runner, "invoke", &args, jit_options(opt))
        .unwrap()
        .translated
}

fn matmul_fox(opt: OptConfig) -> Arc<Translated> {
    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .unwrap();
    env.jit(&app, "start", &[Value::Int(32)], jit_options(opt))
        .unwrap()
        .translated
}

fn pipeline8(opt: OptConfig) -> Arc<Translated> {
    let table = build_table(&[("pipeline8.jl", PIPELINE8)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let stages: Vec<Value> = (0..8)
        .map(|i| {
            env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                .unwrap()
        })
        .collect();
    let app = env.new_instance("App", &stages).unwrap();
    let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
    env.jit(&app, "run", &[data], jit_options(opt))
        .unwrap()
        .translated
}

/// What the whole compile path produces, pinned: FNV-1a of the
/// unsealed artifact payload and the optimized instruction count of three programs
/// under the standard pipeline, under `aggressive()` (which reaches
/// inlining, `sroa` and the post-SROA fold round) and under the
/// optimizer setting of the `JitOptions::wootinj()` preset. A change to
/// the front end, lowering or an optimizer pass that is meant to keep its
/// output must leave all nine pairs alone; one that is meant to change it
/// re-pins them here, visibly.
#[test]
fn compile_path_output_is_pinned() {
    type Pin = (u64, usize);
    type Compile = fn(OptConfig) -> Arc<Translated>;
    let pinned: [(&str, Compile, Pin, Pin, Pin); 3] = [
        (
            "diffusion",
            diffusion,
            (0x0491_86bc_62eb_6af5, 170),
            (0xbd45_5b08_1cc5_5c03, 294),
            (0xbd45_5b08_1cc5_5c03, 294),
        ),
        (
            "matmul-fox",
            matmul_fox,
            (0xe0b6_834c_e693_67ed, 157),
            (0x4c31_6406_2557_1f1a, 225),
            (0x4c31_6406_2557_1f1a, 225),
        ),
        // Fully flattened already: `aggressive()` finds nothing to inline
        // or scalar-replace, so every level pins the same program.
        (
            "pipeline8",
            pipeline8,
            (0xcb60_47d0_bbee_d70e, 4938),
            (0xcb60_47d0_bbee_d70e, 4938),
            (0xcb60_47d0_bbee_d70e, 4938),
        ),
    ];
    let mut moved = Vec::new();
    for (name, compile, standard, aggressive, preset) in pinned {
        for (level, opt, want) in [
            ("standard", OptConfig::standard(), standard),
            ("aggressive", OptConfig::aggressive(), aggressive),
            ("wootinj preset", JitOptions::wootinj().config.opt, preset),
        ] {
            let got = digest_and_count(&compile(opt));
            if got != want {
                moved.push(format!(
                    "{name} {level}: ({:#018x}, {}), pinned ({:#018x}, {})",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "compile output moved:\n{}",
        moved.join("\n")
    );
}

/// `CacheKey::fingerprint` strings, pinned: they name `DiskStore` files,
/// so a change to the key encoding silently orphans every artifact
/// already on disk. One key per encoding branch: an opaque spec with
/// unsorted hosts, a shaped spec with nested objects and no receiver,
/// each `TransConfig` preset and the `JitOptions::wootinj()` config, a
/// platform salt, and a source fingerprint. Every key mixes in
/// `nir::opt::REVISION`, so all of them move when it is bumped; and
/// every name is two seeded `nir::hash::digest64`s, so all of them move
/// with that digest.
#[test]
fn cache_key_fingerprints_are_pinned() {
    use jlang::types::{ClassId, PrimKind};
    use translator::{CacheKey, EntrySpec, Shape, SpecKey};

    let opaque = EntrySpec::Opaque {
        class: ClassId(3),
        method: 1,
        arity: 2,
    };
    let shaped = EntrySpec::Shaped(SpecKey {
        class: ClassId(7),
        method: 4,
        recv: None,
        args: vec![
            Shape::Obj {
                class: ClassId(2),
                fields: vec![
                    Shape::Prim(PrimKind::Double),
                    Shape::Obj {
                        class: ClassId(5),
                        fields: vec![Shape::Arr(nir::ElemTy::F32), Shape::Prim(PrimKind::Int)],
                    },
                ],
            },
            Shape::Prim(PrimKind::Boolean),
        ],
    });
    let hosts = || vec!["ffi.zeta".to_string(), "ffi.alpha".into(), "ffi.mid".into()];
    let keys = [
        (
            "opaque, unsorted hosts",
            CacheKey::new(opaque.clone(), TransConfig::virtual_dispatch(), hosts()),
        ),
        (
            "shaped, nested objects, no receiver",
            CacheKey::new(shaped.clone(), TransConfig::full(), vec![]),
        ),
        (
            "full",
            CacheKey::new(opaque.clone(), TransConfig::full(), vec![]),
        ),
        (
            "devirt",
            CacheKey::new(opaque.clone(), TransConfig::devirt(), vec![]),
        ),
        (
            "virtual_dispatch",
            CacheKey::new(opaque.clone(), TransConfig::virtual_dispatch(), vec![]),
        ),
        (
            "template_no_virt",
            CacheKey::new(opaque.clone(), TransConfig::template_no_virt(), vec![]),
        ),
        (
            "wootinj preset",
            CacheKey::new(opaque.clone(), JitOptions::wootinj().config, vec![]),
        ),
        (
            "platform salt",
            CacheKey::new(shaped.clone(), TransConfig::full(), hosts())
                .with_platform_salt(0x5A17_0000_0000_0042),
        ),
        (
            "source fingerprint",
            CacheKey::new(shaped, TransConfig::full(), hosts())
                .with_source_fingerprint(0x0123_4567_89AB_CDEF),
        ),
    ];
    let pinned = [
        "wj01-bfa2525f4112d9e164fa015d31043120",
        "wj01-f4d7be9d2609c27b6cb8f5c233d197a5",
        "wj01-95be7400ec5ce883f06a216d42553cd3",
        "wj01-6d4c543298d2d29033a217850ae5dc7c",
        "wj01-b477cfbfa3b8f752d354a6f54e0bc8fc",
        "wj01-bb9b2bceaf2515834870c13dcadd44e5",
        "wj01-a13754b415e22344d6e4eaf795878c10",
        "wj01-854f3d03765774187ee0a07518f470b3",
        "wj01-ac907b889d0bf518cf54c2427fb0405b",
    ];
    let mut moved = Vec::new();
    for ((name, key), want) in keys.iter().zip(pinned) {
        let got = key.fingerprint();
        if got != want {
            moved.push(format!("{name}: {got:?}, pinned {want:?}"));
        }
    }
    assert!(
        moved.is_empty(),
        "cache-key fingerprints moved:\n{}",
        moved.join("\n")
    );
}

/// Deterministic xorshift64* PRNG, as in `dist/tests/wire_fuzz.rs`: the
/// same mutants on every run, so a failure is a reproducer.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Unsealed payloads of `golden.wjar` and of the three pinned programs
/// under the `JitOptions::wootinj()` preset.
fn fuzz_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let golden = std::fs::read(fixture_path()).unwrap();
    let preset = JitOptions::wootinj().config.opt;
    let mut out = vec![("golden.wjar", golden)];
    for (name, compile) in [
        ("diffusion", diffusion as fn(OptConfig) -> Arc<Translated>),
        ("matmul-fox", matmul_fox),
        ("pipeline8", pipeline8),
    ] {
        out.push((name, compile(preset).encode()));
    }
    out.into_iter()
        .map(|(name, sealed)| (name, nir::codec::unseal(&sealed).unwrap().to_vec()))
        .collect()
}

/// Seal `payload` and decode it: a typed error, or a valid artifact that
/// re-encodes to exactly the sealed bytes. A panic is recorded in
/// `failures`, not propagated.
fn check_resealed(payload: &[u8], case: &str, failures: &mut Vec<String>) -> bool {
    let sealed = nir::codec::seal(payload);
    match std::panic::catch_unwind(|| Translated::decode(&sealed)) {
        Err(_) => failures.push(format!("{case}: decode panicked")),
        Ok(Err(_)) => return false,
        Ok(Ok(t)) => {
            if let Err(m) = t.program.verify() {
                failures.push(format!("{case}: decoded an invalid program: {m}"));
            }
            if t.program.entry != Some(t.entry) {
                failures.push(format!("{case}: decoded a mismatched entry"));
            }
            if t.encode() != sealed {
                failures.push(format!("{case}: decoded, but re-encodes to other bytes"));
            }
        }
    }
    true
}

/// Offsets for the quadratic loops (one decode per offset, each up to
/// the whole payload): all of them up to 16 KiB. Past that (pipeline8's
/// 146 KB: ~10^10 digest steps for every prefix alone) a seeded sample,
/// with a larger budget in release builds.
fn offsets(len: usize, rng: &mut Rng) -> Vec<usize> {
    if len <= 16 << 10 {
        return (0..len).collect();
    }
    let n = if cfg!(debug_assertions) { 100 } else { 1_000 };
    (0..n).map(|_| rng.below(len)).collect()
}

/// The `wire_fuzz` recipe over whole artifacts, re-sealed so that every
/// mutant passes the digest and reaches the program decoder,
/// `Program::verify` and the entry check: one trailing byte, strict
/// prefixes, `u32::MAX` in 4-byte windows (every one of each, but see
/// [`offsets`]) and 2 000 seeded byte mutations. Each must decode to a typed error or to an
/// artifact that re-encodes to the same bytes; none may panic.
#[test]
fn resealed_mutants_decode_typed_or_identically_never_panic() {
    let payloads = fuzz_payloads();
    let mut rng = Rng(0x05EE_DA27);
    let mut failures = Vec::new();
    let mut accepted = 0;
    for (name, payload) in &payloads {
        let longer = [&payload[..], &[0]].concat();
        if check_resealed(&longer, &format!("{name} + 1 byte"), &mut failures) {
            failures.push(format!("{name}: decoded with a trailing byte"));
        }
        for cut in offsets(payload.len(), &mut rng) {
            let case = format!("{name} {cut}-byte prefix");
            if check_resealed(&payload[..cut], &case, &mut failures) {
                failures.push(format!("{case}: decoded"));
            }
        }
        for at in offsets(payload.len() - 3, &mut rng) {
            let mut huge = payload.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let case = format!("{name} u32::MAX at {at}");
            accepted += usize::from(check_resealed(&huge, &case, &mut failures));
        }
    }
    for _ in 0..2_000 {
        let (name, payload) = &payloads[rng.below(payloads.len())];
        let mut bytes = payload.clone();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 + rng.below(255) as u8;
        let case = format!("{name} byte {at} ^ {:#04x}", bytes[at] ^ payload[at]);
        accepted += usize::from(check_resealed(&bytes, &case, &mut failures));
    }
    assert!(
        failures.is_empty(),
        "{} of the mutants failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    eprintln!("{accepted} mutants decoded and re-encoded identically");
}

/// `Shape` decoding is public through `Wire`, so its nesting bound is
/// API: 64 nested objects decode, 65 are `Corrupt` — before the stack
/// could overflow on a hostile payload.
#[test]
fn shape_nesting_is_bounded_at_64() {
    use jlang::types::{ClassId, PrimKind};
    use nir::codec::Wire;
    use translator::Shape;

    let nested = |depth: usize| {
        (0..depth).fold(Shape::Prim(PrimKind::Int), |inner, i| Shape::Obj {
            class: ClassId(i as u32),
            fields: vec![inner],
        })
    };
    let ok = nested(64);
    assert_eq!(Shape::from_wire(&ok.to_wire()), Ok(ok));
    assert!(matches!(
        Shape::from_wire(&nested(65).to_wire()),
        Err(CodecError::Corrupt { .. })
    ));
}
