//! The repo's one stable-hash implementation.
//!
//! Every hash baked into a persisted format or a wire frame lives here
//! and nowhere else. There are two, both 64-bit, and neither may change
//! by a bit without a version bump of what it is baked into:
//!
//! * [`digest64`] — the integrity digest: a xorshift64\* step absorbing
//!   eight bytes at a time, in four lanes. Baked into the `nir::codec`
//!   container seal (`.wjar` artifacts and `.wckpt` checkpoints alike),
//!   the `CacheKey` fingerprint pair, the program digest that scopes a
//!   checkpoint to its program, the WFR1 frame checksum of
//!   `mpi_sim::transport` (behind `dist` and `jitd`) and the committed
//!   `golden.wjar`. Seeded, so two seeds give an independent 128-bit
//!   fingerprint.
//! * [`fnv1a64`] — FNV-1a, a structural hash baked into platform salts,
//!   on-disk cache namespaces and the query fingerprints of the
//!   incremental database.
//!
//! [`Fingerprint`] is a tiny streaming wrapper over FNV-1a so query
//! fingerprints over structured data (item trees, bodies) are built
//! from typed pushes instead of ad-hoc byte buffers.

/// One xorshift64\* step, absorbing a whole `word` into the state `h`.
/// For a fixed `word` it is a bijection of `h` (an xor, three invertible
/// shift-xors and a multiply by an odd constant); for a fixed `h` it is
/// injective in `word` (the first multiplier is odd too).
#[inline(always)]
fn absorb(mut h: u64, word: u64) -> u64 {
    h ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 12;
    h ^= h << 25;
    h ^= h >> 27;
    h.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Content digest over eight little-endian bytes at a time, in four
/// independent lanes: lane `k` starts at `absorb(seed | 1, k)`, and each
/// 32-byte block gives one word to every lane in turn. The lanes are then
/// folded into one state with `absorb`, which goes on through the words
/// left over, each tail byte as its own step, and the length (so `[1]`
/// and `[1, 0, 0, 0, 0, 0, 0, 0]` differ). Not cryptographic — it detects
/// accidental corruption (bit flips, truncated tails hidden by padding),
/// which is all a local store or a socket needs. Four dependency chains
/// run side by side, so it runs at memory speed: checkpoints are sealed
/// on every capture and verified on every rollback. Different `seed`s
/// give independent digests, so a pair of seeded digests serves as a
/// 128-bit fingerprint.
///
/// A change confined to one absorbed word — every single-bit flip, in
/// particular — always changes the digest: the damaged step's output
/// differs (injective in the word), every later step of its lane is a
/// bijection of the lane's state, the fold absorbs that lane either as
/// its starting state (a bijection from there on) or as a word
/// (injective), and every step after the fold is a bijection again.
pub fn digest64(bytes: &[u8], seed: u64) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
    let s = seed | 1;
    let mut lanes = [0, 1, 2, 3].map(|lane| absorb(s, lane));
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        lanes = [
            absorb(lanes[0], word(&b[..8])),
            absorb(lanes[1], word(&b[8..16])),
            absorb(lanes[2], word(&b[16..24])),
            absorb(lanes[3], word(&b[24..])),
        ];
    }
    let mut h = lanes[1..].iter().fold(lanes[0], |h, &lane| absorb(h, lane));
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = absorb(h, word(w));
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
        // Baked into every persisted `.wckpt` and `.wjar`, every cache-key
        // name and every frame: a drift here silently invalidates them
        // all, so it has to fail a test first.
        let long: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(29)).collect();
        assert_eq!(digest64(b"", 1), 0xc658_b118_03d8_dbf9);
        assert_eq!(digest64(b"hello", 1), 0xd982_cc23_9b5e_6f77);
        assert_eq!(
            digest64(b"0123456789abcdef-tail", 0x57_4A_41_52_00_00_00_01),
            0xd6bd_ae66_a99c_d43d
        );
        // Three whole blocks, a leftover word and four tail bytes.
        assert_eq!(digest64(&long, 7), 0x9181_52fc_2c0f_afaa);
    }

    #[test]
    fn digest64_sees_every_bit_and_the_length() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        // Two whole 32-byte blocks (every lane twice), then every tail: 0..=3
        // leftover words and 0..=7 leftover bytes.
        for len in 0..=100usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    seed = absorb(seed, 1);
                    (seed >> 56) as u8
                })
                .collect();
            let clean = digest64(&bytes, 7);
            for bit in 0..len * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest64(&bad, 7), clean, "len {len} bit {bit}");
            }
            // Seed sensitivity, and truncation by one byte.
            assert_ne!(digest64(&bytes, 9), clean, "len {len}");
            if let Some((_, shorter)) = bytes.split_last() {
                assert_ne!(digest64(shorter, 7), clean, "len {len}");
            }
        }
        // Zero padding up to a word boundary is not invisible.
        assert_ne!(digest64(&[1], 7), digest64(&[1, 0, 0, 0, 0, 0, 0, 0], 7));
        assert_ne!(digest64(&[], 7), digest64(&[0], 7));
    }
}
