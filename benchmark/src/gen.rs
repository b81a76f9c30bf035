//! Seeded input generators and closed-form references.
//!
//! Everything here is a pure function of its arguments: the same seed
//! gives byte-identical inputs, and the programs under test receive
//! nothing but what these functions produce. The stage-source generator
//! and the ring program are frozen copies of the shapes `crates/bench`
//! uses (whose generators are private), so that crate can be split up
//! without moving the ruler.

/// xorshift64* over a splitmix64-scrambled seed (so seed 0 works and
/// neighbouring seeds diverge at once).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// A generator for one named sub-stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Do two floats agree to relative tolerance `tol` (absolute below 1)?
/// How every reference in the benchmark is compared with a result.
pub fn rel_close(got: f32, want: f32, tol: f32) -> bool {
    (got - want).abs() <= got.abs().max(want.abs()).max(1.0) * tol
}

// ---------------------------------------------------------------------
// stage sources (compile-cold, edit-rejit)
// ---------------------------------------------------------------------

/// Statements in one stage body: heavy enough that per-body typeck and
/// lowering cost is visible (8 stages + `App` come to about 59 KB).
pub const STAGE_LINES: usize = 192;

/// The editable state of one stage file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Variant {
    /// Perturbs one literal (a body edit that keeps the shape).
    pub salt: u64,
    /// One more statement at the end of the body.
    pub extra_stmt: bool,
    /// An added method (the item tree changes, the body does not).
    pub probe: Option<u64>,
    /// Blank lines and trailing blanks: a whitespace-only difference.
    pub pad: u32,
}

/// Source of `Stage{i}`: a straight-line float body whose literals are
/// drawn from `seed` (the structure, and so the instruction count, is
/// the same for every seed).
pub fn stage_source(seed: u64, i: usize, v: Variant) -> String {
    let mut rng = Rng::stream(seed, 0x57A6E + i as u64);
    // The whole salt goes into the literal: a body edit never repeats a
    // text the file has had before.
    let mut body = format!("    float a = x * {}.{}f + k;\n", 1 + i % 3, v.salt);
    for _ in 0..STAGE_LINES {
        body.push_str(&format!(
            "    a = a * 1.000{}f + {}f + x * 0.{}f;\n",
            1 + rng.below(4),
            rng.below(13),
            1 + rng.below(9),
        ));
    }
    if v.extra_stmt {
        body.push_str("    a = a + a * 0.125f;\n");
    }
    for _ in 0..v.pad {
        body.push_str("  \n\t\n");
    }
    let method = match v.probe {
        Some(salt) => format!("  float probe{salt}(float x) {{ return x; }}\n"),
        None => String::new(),
    };
    format!(
        "@WootinJ final class Stage{i} {{\n  float k;\n  Stage{i}(float k0) {{ k = k0; }}\n\
         {method}  float f(float x) {{\n{body}    return a;\n  }}\n}}\n"
    )
}

pub fn stage_file(i: usize) -> String {
    format!("stage{i}.jl")
}

/// The `App` entry summing every stage over the data array.
pub fn app_source(k: usize) -> String {
    let fields: String = (0..k).map(|i| format!("  Stage{i} s{i};\n")).collect();
    let params: Vec<String> = (0..k).map(|i| format!("Stage{i} a{i}")).collect();
    let inits: String = (0..k).map(|i| format!("    s{i} = a{i};\n")).collect();
    let calls: String = (0..k)
        .map(|i| format!("      acc += s{i}.f(x);\n"))
        .collect();
    format!(
        "@WootinJ final class App {{\n{fields}  App({}) {{\n{inits}  }}\n\
         \x20 float run(float[] data) {{\n    float acc = 0f;\n\
         \x20   for (int i = 0; i < data.length; i++) {{\n      float x = data[i];\n\
         {calls}    }}\n    return acc;\n  }}\n}}\n",
        params.join(", "),
    )
}

/// `k` stage files in their base variant, then `app.jl`.
pub fn stage_sources(seed: u64, k: usize) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = (0..k)
        .map(|i| (stage_file(i), stage_source(seed, i, Variant::default())))
        .collect();
    files.push(("app.jl".into(), app_source(k)));
    files
}

/// The four floats every generated `App.run` is invoked on.
pub fn app_data(seed: u64) -> [f32; 4] {
    let mut rng = Rng::stream(seed, 0xDA7A);
    [0; 4].map(|_| 0.25 + rng.below(8) as f32 * 0.25)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    Body,
    Whitespace,
    Method,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub kind: EditKind,
    pub file: String,
    pub text: String,
}

/// The edits one child of `edit-rejit` applies, in order, to a workspace
/// that starts from [`stage_sources`]: of `n` edits exactly a tenth add
/// a method, a fifth change whitespace only and the rest change a body;
/// the seed decides their order and which stage each one hits.
pub fn edit_script(seed: u64, round: u64, n: usize, k: usize) -> Vec<Edit> {
    let mut rng = Rng::stream(seed, 0xED17_0000 + round);
    let mut kinds = vec![EditKind::Body; n];
    kinds[..n / 10].fill(EditKind::Method);
    kinds[n / 10..n / 10 + n / 5].fill(EditKind::Whitespace);
    rng.shuffle(&mut kinds);
    let mut state = vec![Variant::default(); k];
    kinds
        .into_iter()
        .enumerate()
        .map(|(j, kind)| {
            let i = rng.below(k as u64) as usize;
            let v = &mut state[i];
            // Distinct per (round, edit), so no two edits repeat a text.
            let salt = 1 + round * 10_007 + j as u64;
            match kind {
                EditKind::Body => {
                    v.salt = salt;
                    v.extra_stmt = !v.extra_stmt;
                }
                EditKind::Whitespace => v.pad += 1,
                EditKind::Method => v.probe = Some(salt),
            }
            Edit {
                kind,
                file: stage_file(i),
                text: stage_source(seed, i, *v),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// ring-step-reduce (ckpt-ring)
// ---------------------------------------------------------------------

/// Ring sendrecv plus a per-step allreduce: a collective boundary, and
/// so a checkpoint, at every step.
pub const RING_STEP_REDUCE: &str = r#"
    @WootinJ final class RingStepReduce {
      RingStepReduce() { }
      float run(int n, int steps) {
        int rank = MPI.rank();
        int size = MPI.size();
        float[] sbuf = new float[n];
        float[] rbuf = new float[n];
        float[] mesh = new float[n * 16];
        for (int i = 0; i < n; i++) { sbuf[i] = rank * n + i; }
        for (int i = 0; i < n * 16; i++) { mesh[i] = i * 0.25f; }
        int dest = (rank + 1) % size;
        int src = (rank + size - 1) % size;
        float acc = 0f;
        for (int s = 0; s < steps; s++) {
          MPI.sendrecvF(sbuf, 0, n, dest, rbuf, 0, src, 7);
          for (int i = 0; i < n; i++) { sbuf[i] = rbuf[i] * 0.5f; }
          acc += mesh[s] + MPI.allreduceSumF(sbuf[0]);
        }
        return acc;
      }
    }
"#;

/// What every rank of [`RING_STEP_REDUCE`] returns, evaluated directly.
pub fn ring_reference(n: usize, steps: usize, ranks: usize) -> f32 {
    let mut sbuf: Vec<Vec<f32>> = (0..ranks)
        .map(|r| (0..n).map(|i| (r * n + i) as f32).collect())
        .collect();
    let mut acc = 0f32;
    for s in 0..steps {
        let rbuf: Vec<Vec<f32>> = (0..ranks)
            .map(|r| sbuf[(r + ranks - 1) % ranks].clone())
            .collect();
        for (sb, rb) in sbuf.iter_mut().zip(&rbuf) {
            for (dst, src) in sb.iter_mut().zip(rb) {
                *dst = src * 0.5;
            }
        }
        let reduced: f32 = sbuf.iter().map(|b| b[0]).sum();
        acc += s as f32 * 0.25 + reduced;
    }
    acc
}

/// One fault-stream seed per operation of one `ckpt-ring` child.
pub fn fault_seeds(seed: u64, round: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 0xFA17_0000 + round);
    (0..n).map(|_| rng.next_u64()).collect()
}

// ---------------------------------------------------------------------
// service requests (service-mix)
// ---------------------------------------------------------------------

/// Iterations of each request program's loop.
pub const SVC_ITERS: i32 = 20_000;
/// Programs the daemon has already translated when timing starts.
pub const SVC_RESIDENT: usize = 8;

/// One request program, identified by its two constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcProgram {
    pub mul: i32,
    pub add: i32,
}

impl SvcProgram {
    pub fn source(self) -> String {
        format!(
            "@WootinJ final class Svc {{ Svc() {{ }} int run(int x) {{ int a = x; \
             for (int i = 0; i < {SVC_ITERS}; i++) {{ a = a * {} + {} + i; }} return a; }} }}",
            self.mul, self.add
        )
    }

    /// `Svc.run(x)` evaluated directly (jlang `int` wraps like `i32`).
    pub fn reference(self, x: i32) -> i32 {
        (0..SVC_ITERS).fold(x, |a, i| {
            a.wrapping_mul(self.mul)
                .wrapping_add(self.add)
                .wrapping_add(i)
        })
    }
}

/// The resident programs of a run: distinct odd multipliers below 100.
pub fn svc_programs(seed: u64) -> Vec<SvcProgram> {
    let mut rng = Rng::stream(seed, 0x5E7C);
    let mut muls: Vec<i32> = (1..50).map(|m| 2 * m + 1).collect();
    rng.shuffle(&mut muls);
    muls.into_iter()
        .take(SVC_RESIDENT)
        .map(|mul| SvcProgram {
            mul,
            add: 1 + rng.below(999) as i32,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcRequest {
    pub program: SvcProgram,
    /// False for a key the daemon has never seen (it must translate).
    pub resident: bool,
    pub x: i32,
}

/// The `n` requests one client connection of one child sends, in order:
/// exactly one in fifty carries a never-seen program (multiplier ≥ 101,
/// unique within the child), the rest pick a resident program.
pub fn request_mix(seed: u64, round: u64, client: u64, n: usize) -> Vec<SvcRequest> {
    let resident = svc_programs(seed);
    let mut rng = Rng::stream(seed, 0x3E90_0000 + round * 16 + client);
    let mut fresh = vec![false; n];
    fresh[..n / 50].fill(true);
    rng.shuffle(&mut fresh);
    fresh
        .into_iter()
        .enumerate()
        .map(|(j, fresh)| {
            let x = rng.below(1_000) as i32;
            let program = if fresh {
                SvcProgram {
                    mul: 101 + 2 * (client as usize * n + j) as i32,
                    add: 1 + rng.below(999) as i32,
                }
            } else {
                resident[rng.below(resident.len() as u64) as usize]
            };
            SvcRequest {
                program,
                resident: !fresh,
                x,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [0, 1, 0x5EED_2014, u64::MAX] {
            assert_eq!(stage_sources(seed, 8), stage_sources(seed, 8));
            assert_eq!(edit_script(seed, 3, 44, 24), edit_script(seed, 3, 44, 24));
            assert_eq!(fault_seeds(seed, 2, 22), fault_seeds(seed, 2, 22));
            assert_eq!(request_mix(seed, 1, 1, 400), request_mix(seed, 1, 1, 400));
            assert_eq!(app_data(seed), app_data(seed));
        }
    }

    #[test]
    fn two_seeds_give_different_inputs_and_the_same_op_counts() {
        let (a, b) = (7, 8);
        assert_ne!(stage_sources(a, 8), stage_sources(b, 8));
        assert_ne!(edit_script(a, 0, 44, 24), edit_script(b, 0, 44, 24));
        assert_ne!(fault_seeds(a, 0, 22), fault_seeds(b, 0, 22));
        assert_ne!(request_mix(a, 0, 0, 400), request_mix(b, 0, 0, 400));
        for seed in [a, b] {
            assert_eq!(stage_sources(seed, 8).len(), 9);
            let edits = edit_script(seed, 0, 40, 24);
            assert_eq!(edits.len(), 40);
            let count = |k| edits.iter().filter(|e| e.kind == k).count();
            assert_eq!(count(EditKind::Method), 4);
            assert_eq!(count(EditKind::Whitespace), 8);
            assert_eq!(count(EditKind::Body), 28);
            let mix = request_mix(seed, 0, 0, 400);
            assert_eq!(mix.len(), 400);
            assert_eq!(mix.iter().filter(|r| !r.resident).count(), 8);
        }
        // The structure of a stage (and so its instruction count) does
        // not depend on the seed: only literals differ.
        let shape = |s: String| {
            s.chars()
                .filter(|c| !c.is_ascii_digit())
                .collect::<String>()
        };
        assert_eq!(
            shape(stage_source(a, 5, Variant::default())),
            shape(stage_source(b, 5, Variant::default()))
        );
    }

    #[test]
    fn rounds_and_clients_draw_from_separate_streams() {
        assert_ne!(edit_script(7, 0, 44, 24), edit_script(7, 1, 44, 24));
        assert_ne!(fault_seeds(7, 0, 22), fault_seeds(7, 1, 22));
        assert_ne!(request_mix(7, 0, 0, 400), request_mix(7, 0, 1, 400));
    }

    #[test]
    fn edits_change_what_their_kind_says() {
        let base = stage_source(7, 3, Variant::default());
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        let ws = stage_source(
            7,
            3,
            Variant {
                pad: 2,
                ..Variant::default()
            },
        );
        assert_ne!(ws, base);
        assert_eq!(squeeze(&ws), squeeze(&base));
        let body = stage_source(
            7,
            3,
            Variant {
                salt: 4,
                extra_stmt: true,
                ..Variant::default()
            },
        );
        assert_ne!(squeeze(&body), squeeze(&base));
        let method = stage_source(
            7,
            3,
            Variant {
                probe: Some(9),
                ..Variant::default()
            },
        );
        assert!(method.contains("float probe9(float x)"));
        // No two edits of a script leave the same text behind.
        let edits = edit_script(7, 0, 60, 4);
        for (i, a) in edits.iter().enumerate() {
            for b in &edits[..i] {
                assert!(a.file != b.file || a.text != b.text);
            }
        }
    }

    #[test]
    fn never_seen_programs_are_unique_and_never_resident() {
        let resident = svc_programs(7);
        assert_eq!(resident.len(), SVC_RESIDENT);
        let mut fresh: Vec<i32> = (0..2)
            .flat_map(|c| request_mix(7, 0, c, 400))
            .filter(|r| !r.resident)
            .map(|r| r.program.mul)
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
        assert!(fresh.iter().all(|m| resident.iter().all(|p| p.mul != *m)));
    }

    #[test]
    fn references_evaluate_the_programs_they_describe() {
        // One rank, one step: sbuf = own values halved, allreduce = sbuf[0].
        assert_eq!(ring_reference(4, 1, 1), 0.0);
        // Two ranks, n = 2: rank0 sbuf = [0,1], rank1 = [2,3]. Step 0:
        // each takes the other's, halved: [1,1.5] and [0,0.5]; reduce 1.0.
        assert_eq!(ring_reference(2, 1, 2), 1.0);
        let p = SvcProgram { mul: 3, add: 1 };
        let mut a = 5i32;
        for i in 0..SVC_ITERS {
            a = a.wrapping_mul(3).wrapping_add(1).wrapping_add(i);
        }
        assert_eq!(p.reference(5), a);
        assert!(p.source().contains("a = a * 3 + 1 + i;"));
    }
}
