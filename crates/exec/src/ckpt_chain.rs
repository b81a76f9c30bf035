//! Delta checkpoint chains: `base + delta*` with verified parentage.
//!
//! A snapshot is decomposed by the caller into ordered byte *sections*
//! (per-rank heap arrays, call-stack tails, fault-PRNG cursors, message
//! queues — the chain layer is agnostic). The first link of a chain is a
//! **base** carrying every section verbatim; each subsequent **delta**
//! link carries only the sections that changed, either as a full
//! replacement or as a byte-run patch against the parent's bytes,
//! whichever is smaller.
//!
//! Every link is a sealed, checksummed `nir::codec` container (version 2)
//! and carries its *parent's seal digest* — the 64-bit digest over the
//! parent's whole payload that closes the parent's container — plus a
//! sequence number, so the chain is self-validating end to end: a
//! truncated, bit-flipped, or swapped-in link surfaces as a typed
//! [`CkptError`] at exactly the first bad hop, and [`resolve_prefix`]
//! hands back the deepest valid ancestor instead of giving up. Only a
//! damaged base forces a cold restart. Each hop verifies its link's bytes
//! exactly once; the digest that verification has just checked is what
//! the next hop's parent field is compared with.

use super::{begin, finish, open_payload, CkptError, TAG_CHAIN_BASE, TAG_CHAIN_DELTA};
use nir::codec::Reader;

/// The WFR1 frame digest `mpi_sim::transport` imports (FNV-1a folded
/// through a xorshift-style avalanche). Chain links do not use it: a
/// child names its parent by the parent's seal digest. Not cryptographic
/// — it guards against corruption and mix-ups, not adversaries.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// Byte runs shorter than this gap apart are merged into one run —
/// per-run framing costs ~12 bytes, so tiny gaps are cheaper inlined.
const RUN_MERGE_GAP: usize = 16;

/// Approximate per-run framing overhead used when deciding whether a
/// patch actually beats a full section replacement.
const RUN_OVERHEAD: usize = 12;

/// One sealed chain link plus the metadata the encoder tracks for it.
#[derive(Debug, Clone)]
pub struct Link {
    /// Sealed container bytes — what gets persisted / shipped.
    pub bytes: Vec<u8>,
    /// Position in the chain: 0 for the base, then 1, 2, …
    pub seq: u64,
    /// Whether this link is a base (full snapshot) or a delta.
    pub is_base: bool,
}

/// Header of a decoded link, for inspection and validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    pub is_base: bool,
    pub seq: u64,
    /// The parent link's seal digest (0 for a base).
    pub parent_digest: u64,
}

/// Verify a sealed link (its one digest pass) and parse its header: the
/// header, the link's own seal digest, and a reader at the link body.
fn open_link(bytes: &[u8]) -> Result<(LinkInfo, u64, Reader<'_>), CkptError> {
    let (mut r, seal_digest) = open_payload(bytes)?;
    let is_base = match r.u8()? {
        TAG_CHAIN_BASE => true,
        TAG_CHAIN_DELTA => false,
        t => {
            return Err(r
                .corrupt(format!("payload kind {t:#04x} is not a chain link"))
                .into())
        }
    };
    let info = LinkInfo {
        is_base,
        seq: r.u64()?,
        parent_digest: r.u64()?,
    };
    Ok((info, seal_digest, r))
}

/// Decode just the header of a sealed link.
pub fn inspect(bytes: &[u8]) -> Result<LinkInfo, CkptError> {
    open_link(bytes).map(|(info, ..)| info)
}

/// The seal digest of a link this process sealed or has just verified:
/// the container's last eight bytes. Anything shorter was never a link
/// and vouches for nothing, so no child can name it.
fn seal_digest_of(link: &[u8]) -> u64 {
    link.last_chunk::<8>().map_or(0, |d| u64::from_le_bytes(*d))
}

/// How one section changed relative to the parent snapshot.
enum Change {
    /// Replace the section's bytes wholesale (also used when lengths
    /// differ — heap reallocation moves everything anyway).
    Full(Vec<u8>),
    /// Same-length section: splice these `(offset, bytes)` runs in.
    Patch(Vec<(usize, Vec<u8>)>),
}

/// Length of the common prefix of two equal-length slices: whole 8-byte
/// words first, then bytes.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| x == y)
        .count();
    let at = words * 8;
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Diff one section against its parent version.
fn diff_section(old: &[u8], new: &[u8]) -> Option<Change> {
    if old == new {
        return None;
    }
    if old.len() != new.len() {
        return Some(Change::Full(new.to_vec()));
    }
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, end)
    let mut i = 0;
    loop {
        i += common_prefix(&old[i..], &new[i..]);
        if i == new.len() {
            break;
        }
        let start = i;
        while i < new.len() && old[i] != new[i] {
            i += 1;
        }
        match runs.last_mut() {
            Some((_, end)) if start - *end < RUN_MERGE_GAP => *end = i,
            _ => runs.push((start, i)),
        }
    }
    let patch_cost: usize = runs.iter().map(|(s, e)| e - s + RUN_OVERHEAD).sum();
    if patch_cost >= new.len() {
        return Some(Change::Full(new.to_vec()));
    }
    Some(Change::Patch(
        runs.into_iter()
            .map(|(s, e)| (s, new[s..e].to_vec()))
            .collect(),
    ))
}

fn encode_base(sections: &[Vec<u8>]) -> Vec<u8> {
    let mut w = begin(TAG_CHAIN_BASE);
    w.u64(0); // seq
    w.u64(0); // parent digest
    w.len(sections.len());
    for s in sections {
        w.len(s.len());
        w.bytes(s);
    }
    finish(w)
}

fn encode_delta(parent: &[Vec<u8>], sections: &[Vec<u8>], seq: u64, parent_digest: u64) -> Vec<u8> {
    let mut w = begin(TAG_CHAIN_DELTA);
    w.u64(seq);
    w.u64(parent_digest);
    w.len(sections.len());
    let mut changed: Vec<(usize, Change)> = Vec::new();
    for (idx, new) in sections.iter().enumerate() {
        let old: &[u8] = parent.get(idx).map(|v| v.as_slice()).unwrap_or(&[]);
        if let Some(c) = diff_section(old, new) {
            changed.push((idx, c));
        }
    }
    w.len(changed.len());
    for (idx, change) in &changed {
        // Indices and offsets are positions, not lengths — the reader's
        // `len()` sanity bound does not apply to them.
        w.u32(*idx as u32);
        match change {
            Change::Full(bytes) => {
                w.u8(0);
                w.len(bytes.len());
                w.bytes(bytes);
            }
            Change::Patch(runs) => {
                w.u8(1);
                w.len(runs.len());
                for (offset, bytes) in runs {
                    w.u64(*offset as u64);
                    w.len(bytes.len());
                    w.bytes(bytes);
                }
            }
        }
    }
    finish(w)
}

fn read_sections_of_base(r: &mut Reader) -> Result<Vec<Vec<u8>>, CkptError> {
    let n = r.len()?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.len()?;
        sections.push(r.bytes(len)?.to_vec());
    }
    Ok(sections)
}

/// Apply one delta payload (reader positioned past the header) to the
/// parent's sections.
fn apply_delta(r: &mut Reader, parent: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CkptError> {
    let n_total = r.len()?;
    let mut sections: Vec<Vec<u8>> = parent.to_vec();
    sections.resize(n_total, Vec::new());
    let n_changed = r.len()?;
    for _ in 0..n_changed {
        let idx = r.u32()? as usize;
        if idx >= n_total {
            return Err(r
                .corrupt(format!("delta touches section {idx} of {n_total}"))
                .into());
        }
        match r.u8()? {
            0 => {
                let len = r.len()?;
                sections[idx] = r.bytes(len)?.to_vec();
            }
            1 => {
                let n_runs = r.len()?;
                for _ in 0..n_runs {
                    let offset = r.u64()? as usize;
                    let len = r.len()?;
                    let bytes = r.bytes(len)?;
                    let sec = &mut sections[idx];
                    // `offset` is any u64 the link cared to carry.
                    let Some(dst) = offset
                        .checked_add(len)
                        .and_then(|end| sec.get_mut(offset..end))
                    else {
                        return Err(r
                            .corrupt(format!(
                                "patch run {offset}+{len} past section {idx} end {}",
                                sec.len()
                            ))
                            .into());
                    };
                    dst.copy_from_slice(bytes);
                }
            }
            k => return Err(r.corrupt(format!("bad change kind {k}")).into()),
        }
    }
    Ok(sections)
}

/// Result of walking a chain front to back: how many links validated and
/// applied cleanly, the resolved sections of that prefix, and the typed
/// error that stopped the walk (if any link was bad).
#[derive(Debug)]
pub struct ResolveOutcome {
    /// Number of leading links that validated and applied.
    pub valid_links: usize,
    /// Snapshot sections after applying the valid prefix (empty when
    /// even the base was bad).
    pub sections: Vec<Vec<u8>>,
    /// Why the walk stopped early, when `valid_links < links.len()`.
    pub error: Option<CkptError>,
}

/// Walk `links` (base first), verifying every link's digest (one pass
/// over its bytes) and its version, kind, sequence, and parent digest at
/// every hop, applying deltas as it goes. Never fails outright: a damaged
/// link simply ends the valid prefix, which is the deepest valid ancestor
/// rollback degrades to.
pub fn resolve_prefix(links: &[Vec<u8>]) -> ResolveOutcome {
    let mut sections: Vec<Vec<u8>> = Vec::new();
    let mut prev_digest = 0u64;
    for (i, bytes) in links.iter().enumerate() {
        let step = || -> Result<(Vec<Vec<u8>>, u64), CkptError> {
            let (info, seal_digest, mut r) = open_link(bytes)?;
            let next = if i == 0 {
                if !info.is_base {
                    return Err(CkptError::ChainBroken {
                        seq: info.seq,
                        message: "chain does not start with a base link".into(),
                    });
                }
                read_sections_of_base(&mut r)?
            } else {
                if info.is_base {
                    return Err(CkptError::ChainBroken {
                        seq: info.seq,
                        message: format!("unexpected base link at position {i}"),
                    });
                }
                if info.seq != i as u64 {
                    return Err(CkptError::ChainBroken {
                        seq: info.seq,
                        message: format!("link claims seq {}, expected {i}", info.seq),
                    });
                }
                if info.parent_digest != prev_digest {
                    return Err(CkptError::ChainBroken {
                        seq: info.seq,
                        message: format!(
                            "parent digest {:#018x} does not match {:#018x}",
                            info.parent_digest, prev_digest
                        ),
                    });
                }
                apply_delta(&mut r, &sections)?
            };
            Ok((next, seal_digest))
        };
        match step() {
            Ok((next, seal_digest)) => {
                sections = next;
                prev_digest = seal_digest;
            }
            Err(e) => {
                return ResolveOutcome {
                    valid_links: i,
                    sections,
                    error: Some(e),
                }
            }
        }
    }
    ResolveOutcome {
        valid_links: links.len(),
        sections,
        error: None,
    }
}

/// Incremental chain encoder: holds the sections of the chain head so
/// the next [`ChainState::push`] can diff against them.
#[derive(Debug, Default, Clone)]
pub struct ChainState {
    sections: Vec<Vec<u8>>,
    head_digest: u64,
    next_seq: u64,
}

impl ChainState {
    /// An empty encoder — the first push always produces a base.
    pub fn new() -> Self {
        ChainState::default()
    }

    /// Rebuild the encoder at the head of an already-resolved chain
    /// (warm start, or rollback to a shorter valid prefix). `head_bytes`
    /// is the sealed last link of the prefix, as [`resolve_prefix`]
    /// verified it.
    pub fn resume(sections: Vec<Vec<u8>>, head_bytes: &[u8], links_in_chain: u64) -> Self {
        ChainState {
            sections,
            head_digest: seal_digest_of(head_bytes),
            next_seq: links_in_chain,
        }
    }

    /// Encode the next link. `force_base` starts a fresh epoch (rebase);
    /// the first push of a chain is always a base regardless.
    pub fn push(&mut self, sections: Vec<Vec<u8>>, force_base: bool) -> Link {
        let is_base = force_base || self.next_seq == 0;
        let (bytes, seq) = if is_base {
            (encode_base(&sections), 0)
        } else {
            let seq = self.next_seq;
            (
                encode_delta(&self.sections, &sections, seq, self.head_digest),
                seq,
            )
        };
        self.head_digest = seal_digest_of(&bytes);
        self.next_seq = seq + 1;
        self.sections = sections;
        Link {
            bytes,
            seq,
            is_base,
        }
    }

    /// Sections at the current chain head (what the next delta diffs
    /// against).
    pub fn head_sections(&self) -> &[Vec<u8>] {
        &self.sections
    }
}

/// A standalone full snapshot is just a single-link chain.
pub fn base_link(sections: &[Vec<u8>]) -> Vec<u8> {
    encode_base(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(parts: &[&[u8]]) -> Vec<Vec<u8>> {
        parts.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn chain_resolves_to_the_latest_snapshot() {
        let mut enc = ChainState::new();
        let s0 = snap(&[b"header", b"aaaaaaaaaaaaaaaa", b"queue"]);
        let s1 = snap(&[b"header", b"aaaaaaaaXaaaaaaa", b"queue"]);
        let s2 = snap(&[b"header2", b"aaaaaaaaXaaaaaaa", b"qq"]);
        let l0 = enc.push(s0, false);
        let l1 = enc.push(s1, false);
        let l2 = enc.push(s2.clone(), false);
        assert!(l0.is_base && !l1.is_base && !l2.is_base);
        assert_eq!((l0.seq, l1.seq, l2.seq), (0, 1, 2));
        let out = resolve_prefix(&[l0.bytes, l1.bytes, l2.bytes]);
        assert_eq!(out.valid_links, 3);
        assert!(out.error.is_none());
        assert_eq!(out.sections, s2);
    }

    #[test]
    fn deltas_are_much_smaller_than_bases_for_sparse_change() {
        let big: Vec<u8> = (0..16_384u32).map(|i| i as u8).collect();
        let mut touched = big.clone();
        touched[5000] ^= 0xFF;
        let mut enc = ChainState::new();
        let base = enc.push(snap(&[&big, b"small"]), false);
        let delta = enc.push(snap(&[&touched, b"small"]), false);
        assert!(
            delta.bytes.len() * 20 < base.bytes.len(),
            "one-byte change: delta {} vs base {}",
            delta.bytes.len(),
            base.bytes.len()
        );
    }

    #[test]
    fn unchanged_snapshot_encodes_a_near_empty_delta() {
        let s = snap(&[&[7u8; 4096], b"tail"]);
        let mut enc = ChainState::new();
        enc.push(s.clone(), false);
        let delta = enc.push(s.clone(), false);
        assert!(
            delta.bytes.len() < 64,
            "empty delta is {}",
            delta.bytes.len()
        );
        // And it still resolves to the same snapshot.
        let mut enc2 = ChainState::new();
        let l0 = enc2.push(s.clone(), false);
        let l1 = enc2.push(s.clone(), false);
        let out = resolve_prefix(&[l0.bytes, l1.bytes]);
        assert_eq!(out.sections, s);
    }

    #[test]
    fn length_changes_and_section_count_changes_resolve() {
        let mut enc = ChainState::new();
        let s0 = snap(&[b"one", b"two"]);
        let s1 = snap(&[b"one-grew-longer", b"two", b"three-is-new"]);
        let s2 = snap(&[b"one-grew-longer"]);
        let links: Vec<Vec<u8>> = [s0, s1, s2.clone()]
            .into_iter()
            .map(|s| enc.push(s, false).bytes)
            .collect();
        let out = resolve_prefix(&links);
        assert_eq!(out.valid_links, 3);
        assert_eq!(out.sections, s2);
    }

    #[test]
    fn rebase_starts_a_fresh_epoch() {
        let mut enc = ChainState::new();
        let s = snap(&[b"state"]);
        enc.push(s.clone(), false);
        enc.push(s.clone(), false);
        let rebased = enc.push(s.clone(), true);
        assert!(rebased.is_base);
        assert_eq!(rebased.seq, 0);
        let next = enc.push(s.clone(), false);
        assert_eq!(next.seq, 1, "seq restarts after a rebase");
        let out = resolve_prefix(&[rebased.bytes, next.bytes]);
        assert_eq!(out.valid_links, 2);
        assert_eq!(out.sections, s);
    }

    #[test]
    fn every_single_bit_flip_stops_at_the_damaged_link() {
        let mut enc = ChainState::new();
        let links: Vec<Vec<u8>> = [
            snap(&[b"base-state-0123456789"]),
            snap(&[b"base-state-0123456789".as_slice(), b"grown"]),
            snap(&[b"base-stateX0123456789".as_slice(), b"grown"]),
        ]
        .into_iter()
        .map(|s| enc.push(s, false).bytes)
        .collect();
        for damaged_idx in 0..links.len() {
            let victim = &links[damaged_idx];
            for byte in 0..victim.len() {
                let mut bad = links.clone();
                bad[damaged_idx][byte] ^= 0x10;
                let out = resolve_prefix(&bad);
                assert_eq!(
                    out.valid_links, damaged_idx,
                    "flip at link {damaged_idx} byte {byte}"
                );
                assert!(out.error.is_some());
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut enc = ChainState::new();
        let l0 = enc.push(snap(&[b"0123456789abcdef"]), false);
        let l1 = enc.push(snap(&[b"0123456789ABcdef"]), false);
        let mut cut = l1.bytes.clone();
        cut.truncate(cut.len() / 2);
        let out = resolve_prefix(&[l0.bytes.clone(), cut]);
        assert_eq!(out.valid_links, 1);
        assert!(matches!(
            out.error,
            Some(CkptError::Truncated { .. } | CkptError::Corrupt { .. })
        ));
    }

    /// A correctly sealed delta is still input: its one patch run starts
    /// at `u64::MAX`, so `offset + len` must not be computed unchecked.
    #[test]
    fn hostile_patch_offset_is_typed() {
        let base = ChainState::new().push(snap(&[b"0123456789abcdef"]), false);
        for (offset, len) in [(u64::MAX, 1usize), (u64::MAX - 3, 4), (16, 1), (9, 8)] {
            let mut w = begin(TAG_CHAIN_DELTA);
            w.u64(1); // seq
            w.u64(seal_digest_of(&base.bytes));
            w.len(1); // sections in the snapshot
            w.len(1); // changed sections
            w.u32(0); // section index
            w.u8(1); // patch
            w.len(1); // runs
            w.u64(offset);
            w.len(len);
            w.bytes(&vec![b'X'; len]);
            let out = resolve_prefix(&[base.bytes.clone(), finish(w)]);
            assert_eq!(out.valid_links, 1, "run {offset}+{len}");
            assert!(
                matches!(out.error, Some(CkptError::Corrupt { .. })),
                "run {offset}+{len}: {:?}",
                out.error
            );
            assert_eq!(out.sections, snap(&[b"0123456789abcdef"]));
        }
    }

    #[test]
    fn swapped_in_foreign_link_is_chain_broken() {
        let mut a = ChainState::new();
        let a0 = a.push(snap(&[b"world-a"]), false);
        let a1 = a.push(snap(&[b"world-A"]), false);
        let mut b = ChainState::new();
        b.push(snap(&[b"world-b"]), false);
        let b1 = b.push(snap(&[b"world-B"]), false);
        // b's delta is well-formed but does not descend from a's base.
        let out = resolve_prefix(&[a0.bytes.clone(), b1.bytes]);
        assert_eq!(out.valid_links, 1);
        assert!(matches!(out.error, Some(CkptError::ChainBroken { .. })));
        // Order violations are chain-broken too.
        let out = resolve_prefix(&[a1.bytes, a0.bytes]);
        assert_eq!(out.valid_links, 0);
        assert!(matches!(out.error, Some(CkptError::ChainBroken { .. })));
    }

    #[test]
    fn resume_continues_an_existing_chain() {
        let mut enc = ChainState::new();
        let s0 = snap(&[b"alpha", b"beta"]);
        let s1 = snap(&[b"alpha", b"BETA"]);
        let l0 = enc.push(s0, false);
        let l1 = enc.push(s1.clone(), false);
        // A fresh process resolves the persisted chain, then resumes it.
        let out = resolve_prefix(&[l0.bytes.clone(), l1.bytes.clone()]);
        let mut resumed = ChainState::resume(out.sections, &l1.bytes, 2);
        let s2 = snap(&[b"ALPHA", b"BETA"]);
        let l2 = resumed.push(s2.clone(), false);
        assert_eq!(l2.seq, 2);
        let out = resolve_prefix(&[l0.bytes, l1.bytes, l2.bytes]);
        assert_eq!(out.valid_links, 3);
        assert_eq!(out.sections, s2);
    }

    #[test]
    fn base_link_round_trips_standalone() {
        let s = snap(&[b"only"]);
        let bytes = base_link(&s);
        let info = inspect(&bytes).unwrap();
        assert!(info.is_base);
        assert_eq!(info.seq, 0);
        let out = resolve_prefix(&[bytes]);
        assert_eq!(out.valid_links, 1);
        assert_eq!(out.sections, s);
    }
}
