//! The repo's one stable-hash implementation.
//!
//! Three 64-bit hashes live here and nowhere else. Each is baked into a
//! persisted format, so none of them may ever change by a bit:
//!
//! * [`digest64`] — the xorshift64\* stream digest, one byte per step.
//!   Baked into the version-1 (`WJAR` artifact) container seal, the
//!   `CacheKey` fingerprint pair, `dist`'s warm-program digest and the
//!   committed `golden.wjar`. Seeded, so two seeds give an independent
//!   128-bit fingerprint.
//! * [`digest64_words`] — the same step absorbing eight bytes at a time.
//!   Baked into the version-2 container seal, which frames checkpoints
//!   (`.wckpt` chain links and machine snapshots) and nothing else.
//! * [`fnv1a64`] — FNV-1a, baked into platform salts, on-disk cache
//!   namespaces and the query fingerprints of the incremental database.
//!
//! [`Fingerprint`] is a tiny streaming wrapper over FNV-1a so query
//! fingerprints over structured data (item trees, bodies) are built
//! from typed pushes instead of ad-hoc byte buffers.

/// Content digest: a xorshift64\* stream absorbing one byte per step.
/// Not cryptographic — it detects accidental corruption (bit flips,
/// truncated tails hidden by padding), which is all a local artifact
/// store needs. Different `seed`s give independent digests, so a pair of
/// seeded digests serves as a 128-bit fingerprint.
pub fn digest64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed | 1;
    for &b in bytes {
        // Spelled out rather than calling `absorb`: at opt-level 0 this
        // loop is most of a disk-cache warm start, and going through the
        // call read ≈20 % slower there (`wootinj/tests/disk_cache.rs`
        // asserts a wall-clock ratio on it).
        h ^= u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // xorshift64* step.
        h ^= h >> 12;
        h ^= h << 25;
        h ^= h >> 27;
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    h
}

/// The step of [`digest64`]'s loop body, absorbing a whole `word` into
/// the state `h`. For a fixed `word` it is a bijection of `h` (an xor,
/// three invertible shift-xors and a multiply by an odd constant); for a
/// fixed `h` it is injective in `word` (the first multiplier is odd too).
#[inline(always)]
fn absorb(mut h: u64, word: u64) -> u64 {
    h ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 12;
    h ^= h << 25;
    h ^= h >> 27;
    h.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// [`digest64`]'s step over eight little-endian bytes at a time: whole
/// words first, then each tail byte as its own step, then the length (so
/// `[1]` and `[1, 0, 0, 0, 0, 0, 0, 0]` differ). Same integrity model,
/// an eighth of the steps — checkpoints are hashed on every capture and
/// every rollback, so theirs has to run at memory speed.
///
/// A change confined to one absorbed word — every single-bit flip, in
/// particular — always changes the digest: the damaged step's output
/// differs (injective in the word) and every later step is a bijection
/// of the state.
pub fn digest64_words(bytes: &[u8], seed: u64) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = seed | 1;
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = absorb(h, word);
    }
    for &b in words.remainder() {
        h = absorb(h, u64::from(b));
    }
    absorb(h, bytes.len() as u64)
}

/// FNV-1a 64-bit. Stable across processes and releases (it is baked
/// into on-disk fingerprints and platform salts).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Streaming FNV-1a fingerprint over structured data. Every push is
/// framed by its width, so `u8(1), u8(2)` and `u16(0x0201)` do not
/// collide by construction and field boundaries stay unambiguous.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Seeded start, for chaining one fingerprint into another.
    pub fn seeded(seed: u64) -> Self {
        let mut f = Fingerprint::new();
        f.u64(seed);
        f
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64_bits(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Length-prefixed so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Well-known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_streams_like_fnv() {
        let mut f = Fingerprint::new();
        f.bytes(b"foobar");
        assert_eq!(f.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn fingerprint_frames_fields() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix keeps boundaries");
    }

    #[test]
    fn digest64_is_pinned() {
        // Baked into WJAR seals, `CacheKey` fingerprints and `golden.wjar`.
        assert_eq!(digest64(b"hello", 1), 0xb03a_58ee_959b_2224);
        assert_ne!(digest64(b"hello", 1), digest64(b"hello", 2));
        // Its loop body and `absorb` are the same step, written twice.
        let by_steps = b"hello".iter().fold(1, |h, &b| absorb(h, u64::from(b)));
        assert_eq!(digest64(b"hello", 1), by_steps);
    }

    #[test]
    fn digest64_words_is_pinned() {
        // Baked into every persisted `.wckpt`: a drift here silently
        // invalidates them all, so it has to fail a test first.
        assert_eq!(digest64_words(b"", 1), 0x47e4_ce4b_896c_dd1d);
        assert_eq!(digest64_words(b"hello", 1), 0x0742_4023_8a47_eeb2);
        assert_eq!(
            digest64_words(b"0123456789abcdef-tail", 0x57_4A_41_52_00_00_00_01),
            0xd335_7f11_7e4c_f608
        );
    }

    #[test]
    fn digest64_words_sees_every_bit_and_the_length() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=40usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    seed = absorb(seed, 1);
                    (seed >> 56) as u8
                })
                .collect();
            let clean = digest64_words(&bytes, 7);
            for bit in 0..len * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest64_words(&bad, 7), clean, "len {len} bit {bit}");
            }
            // Seed sensitivity, and truncation by one byte.
            assert_ne!(digest64_words(&bytes, 9), clean, "len {len}");
            if let Some((_, shorter)) = bytes.split_last() {
                assert_ne!(digest64_words(shorter, 7), clean, "len {len}");
            }
        }
        // Zero padding up to a word boundary is not invisible.
        assert_ne!(
            digest64_words(&[1], 7),
            digest64_words(&[1, 0, 0, 0, 0, 0, 0, 0], 7)
        );
        assert_ne!(digest64_words(&[], 7), digest64_words(&[0], 7));
    }
}
