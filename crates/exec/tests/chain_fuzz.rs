//! Mutation fuzzer for WCKPT chain links: whatever bytes a link holds,
//! [`resolve_prefix`] stops typed at that link or resolves it — it never
//! panics and never hands back more state than the input could carry.
//!
//! Digest-protected bytes are the easy half (any damage is a digest
//! mismatch). The other half is a link that is *correctly sealed* around
//! a hostile payload — a `.wckpt` written by a buggy or foreign encoder —
//! so every mutation below is re-sealed with a valid digest and reaches
//! the base and delta decoders behind the seal.
//!
//! Inputs come from a seeded xorshift generator (as in
//! `crates/dist/tests/wire_fuzz.rs`), so a failure is a reproducer.

use exec::ckpt::chain::{resolve_prefix, ChainState, ResolveOutcome};
use exec::ckpt::CkptError;
use nir::codec::{seal_ckpt, unseal_ckpt};

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

/// A base and three deltas that between them use every change kind: byte
/// patches (one run, several runs), a full replacement from a length
/// change, an appended section, a dropped section and an untouched one.
fn chain() -> Vec<Vec<u8>> {
    let mesh: Vec<u8> = (0..160u32).map(|i| (i * 7) as u8).collect();
    let mut mesh1 = mesh.clone();
    mesh1[40] ^= 0xFF;
    let mut mesh2 = mesh1.clone();
    mesh2[3] ^= 1;
    mesh2[90..96].fill(0xAB);
    mesh2[150] ^= 0x80;
    let snaps: [Vec<Vec<u8>>; 4] = [
        vec![b"hdr-0".to_vec(), mesh, b"queue".to_vec()],
        vec![b"hdr-1".to_vec(), mesh1.clone(), b"queue".to_vec()],
        vec![
            b"hdr-2-grew".to_vec(),
            mesh2.clone(),
            b"queue".to_vec(),
            b"new".to_vec(),
        ],
        vec![b"hdr-3-grew".to_vec(), mesh2, b"q".to_vec()],
    ];
    let mut enc = ChainState::new();
    snaps
        .into_iter()
        .map(|s| enc.push(s, false).bytes)
        .collect()
}

fn total_len(sections: &[Vec<u8>]) -> usize {
    sections.iter().map(Vec::len).sum()
}

/// `links[k]`'s payload replaced by `payload` under a correct seal.
fn with_payload(links: &[Vec<u8>], k: usize, payload: &[u8]) -> Vec<Vec<u8>> {
    let mut out = links.to_vec();
    out[k] = seal_ckpt(payload);
    out
}

/// What must hold after link `k` was replaced by different bytes.
fn check(links: &[Vec<u8>], k: usize, out: &ResolveOutcome, parent: &[Vec<u8>], what: &str) {
    // The links before it are untouched, and its child names the old
    // seal digest, so the walk ends at `k` (typed) or one past it.
    assert!(
        out.valid_links == k || out.valid_links == k + 1,
        "{what}: stopped at {} of {}",
        out.valid_links,
        links.len()
    );
    assert_eq!(
        out.error.is_some(),
        out.valid_links < links.len(),
        "{what}: {:?}",
        out.error
    );
    if out.valid_links == k + 1 && k + 1 < links.len() {
        assert!(
            matches!(out.error, Some(CkptError::ChainBroken { seq, .. }) if seq == k as u64 + 1),
            "{what}: {:?}",
            out.error
        );
    }
    // No decoded length or count outgrows what the link and its parent
    // hold.
    assert!(
        total_len(&out.sections) <= links[k].len() + total_len(parent),
        "{what}: {} bytes of state from a {}-byte link over {}",
        total_len(&out.sections),
        links[k].len(),
        total_len(parent)
    );
    assert!(
        out.sections.len() <= links[k].len().max(parent.len()),
        "{what}: {} sections",
        out.sections.len()
    );
}

#[test]
fn every_strict_prefix_of_every_link_stops_typed_at_that_link() {
    let links = chain();
    let clean = resolve_prefix(&links);
    assert_eq!(clean.valid_links, 4);
    for k in 0..links.len() {
        for cut in 0..links[k].len() {
            let mut bad = links.clone();
            bad[k].truncate(cut);
            let out = resolve_prefix(&bad);
            assert_eq!(out.valid_links, k, "link {k} cut to {cut}");
            assert!(
                matches!(out.error, Some(CkptError::Truncated { .. })),
                "link {k} cut to {cut}: {:?}",
                out.error
            );
        }
    }
}

#[test]
fn resealed_payload_mutations_resolve_or_stop_typed_never_panic() {
    let links = chain();
    let payloads: Vec<&[u8]> = links
        .iter()
        .map(|l| unseal_ckpt(l).expect("a clean link unseals").0)
        .collect();
    let parents: Vec<Vec<Vec<u8>>> = (0..links.len())
        .map(|k| resolve_prefix(&links[..k]).sections)
        .collect();
    // The harness itself: an unmutated payload re-seals to the same link.
    for (k, payload) in payloads.iter().enumerate() {
        assert_eq!(with_payload(&links, k, payload), links);
    }

    let mut rng = Rng(0xC4A1_F022);
    for round in 0..2_000 {
        let k = rng.below(links.len());
        let mut payload = payloads[k].to_vec();
        let at = rng.below(payload.len());
        match round % 4 {
            0 => payload[at] ^= 1 + rng.below(255) as u8,
            1 => payload[at] = rng.next_u64() as u8,
            2 => {
                // Cut mid-record, or grow a tail the header never promised.
                if rng.below(2) == 0 {
                    payload.truncate(at);
                } else {
                    payload.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
            }
            _ => {
                let word = rng.next_u64().to_le_bytes();
                let n = word.len().min(payload.len() - at);
                payload[at..at + n].copy_from_slice(&word[..n]);
            }
        }
        if payload == payloads[k] {
            continue;
        }
        let bad = with_payload(&links, k, &payload);
        let out = resolve_prefix(&bad);
        let what = format!("round {round} link {k}");
        check(&bad, k, &out, &parents[k], &what);
    }

    // Every 4-byte window forced to u32::MAX and every 8-byte window to
    // u64::MAX: whichever of them are lengths, section indices or patch
    // offsets must fail typed, not index or allocate by them.
    for k in 0..links.len() {
        for width in [4usize, 8] {
            for at in 0..payloads[k].len().saturating_sub(width - 1) {
                let mut payload = payloads[k].to_vec();
                payload[at..at + width].fill(0xFF);
                if payload == payloads[k] {
                    continue;
                }
                let bad = with_payload(&links, k, &payload);
                let out = resolve_prefix(&bad);
                let what = format!("link {k}: {width} bytes of 0xFF at {at}");
                check(&bad, k, &out, &parents[k], &what);
            }
        }
    }
}
