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
//! Sections are shared, immutable bytes ([`Section`]). A capture hands
//! back the very allocation it handed out last time for a section that
//! did not change (`exec::ckpt::machine_array_sections` does this for
//! every array not written since), so [`ChainState::push`] skips such a
//! section by pointer before any content diff, and resolving a delta
//! shares its parent's unchanged sections instead of copying them.
//!
//! A link is encoded in two steps: the diff against the head decides
//! what it carries and so its exact sealed length, and only then is it
//! written. [`ChainState::push`] takes both steps and seals the link;
//! [`ChainState::advance`] takes only the first, for a chain whose bytes
//! nobody reads: `mpi-sim` keeps its in-process chain as the snapshots
//! themselves and seals links only when it persists them, yet charges
//! and counts every link by the length it would have.
//!
//! Every sealed link is a checksummed `nir::codec` container
//! and carries its *parent's seal digest* — the 64-bit digest over the
//! parent's whole payload that closes the parent's container — plus a
//! sequence number, so the chain is self-validating end to end: a
//! truncated, bit-flipped, or swapped-in link surfaces as a typed
//! [`CkptError`] at exactly the first bad hop, and [`resolve_prefix`]
//! hands back the deepest valid ancestor instead of giving up
//! ([`resolve_all`] hands back every valid link's snapshot, which is what
//! a warm start resumes from). Only a damaged base forces a cold restart.
//! Each hop verifies its link's bytes exactly once; the digest that
//! verification has just checked is what the next hop's parent field is
//! compared with.

use super::{begin_sized, open_payload, CkptError, TAG_CHAIN_BASE, TAG_CHAIN_DELTA};
use nir::codec::{Reader, CONTAINER_OVERHEAD};
use std::sync::Arc;

/// One snapshot section: immutable bytes, shared between the capture that
/// produced them, the chain head and every resolved snapshot holding them.
pub type Section = Arc<[u8]>;

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

/// Header of a decoded link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkInfo {
    is_base: bool,
    seq: u64,
    /// The parent link's seal digest (0 for a base).
    parent_digest: u64,
}

/// Verify a sealed link (its one digest pass) and parse its header: the
/// header, the link's own seal digest, and a reader at the link body.
fn open_link(bytes: &[u8]) -> Result<(LinkInfo, u64, Reader<'_>), CkptError> {
    let mut r = open_payload(bytes)?;
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
    Ok((info, seal_digest_of(bytes), r))
}

/// The seal digest of a link this process sealed or has just verified:
/// the container's last eight bytes. Anything shorter was never a link
/// and vouches for nothing, so no child can name it.
fn seal_digest_of(link: &[u8]) -> u64 {
    link.last_chunk::<8>().map_or(0, |d| u64::from_le_bytes(*d))
}

/// How one section changed relative to the parent snapshot.
#[derive(Debug, PartialEq)]
enum Change<'a> {
    /// Replace the section's bytes wholesale (also used when lengths
    /// differ — heap reallocation moves everything anyway).
    Full(&'a [u8]),
    /// Same-length section: splice these `(offset, bytes)` runs in.
    Patch(Vec<(usize, &'a [u8])>),
}

impl Change<'_> {
    /// Bytes this change takes in a delta payload, after its section index.
    fn encoded_len(&self) -> usize {
        1 + match self {
            Change::Full(bytes) => 4 + bytes.len(),
            Change::Patch(runs) => 4 + runs.iter().map(|(_, b)| 12 + b.len()).sum::<usize>(),
        }
    }
}

/// Up to eight bytes as a little-endian word, zero-padded.
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Bytes [`diff_section`] compares per step: eight words.
const BLOCK: usize = 64;

/// The byte runs of a patch as [`diff_section`] finds them, and what the
/// patch costs so far. The cost only grows, so once it reaches the
/// section's length the answer is a full replacement.
#[derive(Default)]
struct Runs {
    /// `(start, end)` of each run, in order.
    runs: Vec<(usize, usize)>,
    cost: usize,
}

impl Runs {
    /// Take in differing bytes from `start` to `end`, whose equal bytes
    /// are all in gaps shorter than [`RUN_MERGE_GAP`]: they join the open
    /// run when the gap before `start` is short too, else open a new one.
    fn add(&mut self, start: usize, end: usize) {
        match self.runs.last_mut() {
            Some((_, e)) if start - *e < RUN_MERGE_GAP => {
                self.cost += end - *e;
                *e = end;
            }
            _ => {
                self.cost += end - start + RUN_OVERHEAD;
                self.runs.push((start, end));
            }
        }
    }

    /// Take in the word at offset `at` whose differing bytes are the
    /// nonzero bytes of `x` (nonzero). Inside one word at most six equal
    /// bytes lie between two differing ones, so they always merge.
    fn word(&mut self, at: usize, x: u64) {
        self.add(first_byte(at, x), end_byte(at, x));
    }
}

/// The offset of the first nonzero byte of the (nonzero) word `x` at `at`.
fn first_byte(at: usize, x: u64) -> usize {
    at + x.trailing_zeros() as usize / 8
}

/// The offset just past the last nonzero byte of the (nonzero) word `x`
/// at `at`.
fn end_byte(at: usize, x: u64) -> usize {
    at + 8 - x.leading_zeros() as usize / 8
}

/// Diff one section against its parent version: the maximal runs of
/// differing bytes, merged across equal gaps shorter than
/// [`RUN_MERGE_GAP`], or the whole section when the runs would cost as
/// much.
///
/// It compares a [`BLOCK`] of eight words at a time and skips an equal
/// block. In a block whose eight words all differ, no two differing bytes
/// are [`RUN_MERGE_GAP`] apart, so once its first word has joined or
/// opened a run, that run reaches the block's last differing byte. The
/// cost is checked once per block: it only grows, so the answer is the
/// same.
fn diff_section<'a>(old: &[u8], new: &'a [u8]) -> Option<Change<'a>> {
    if old == new {
        return None;
    }
    let len = new.len();
    if old.len() != len {
        return Some(Change::Full(new));
    }
    let mut runs = Runs::default();
    let (a, a_rest) = old.as_chunks::<BLOCK>();
    let (b, b_rest) = new.as_chunks::<BLOCK>();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x == y {
            continue;
        }
        let at = i * BLOCK;
        let (x, y) = (x.as_chunks::<8>().0, y.as_chunks::<8>().0);
        let d = |k: usize| u64::from_le_bytes(x[k]) ^ u64::from_le_bytes(y[k]);
        // `&`, not `&&`: eight compares without a branch between them.
        if x.iter().zip(y).fold(true, |all, (p, q)| all & (p != q)) {
            runs.add(first_byte(at, d(0)), end_byte(at + BLOCK - 8, d(7)));
        } else {
            for k in 0..8 {
                if d(k) != 0 {
                    runs.word(at + 8 * k, d(k));
                }
            }
        }
        if runs.cost >= len {
            return Some(Change::Full(new));
        }
    }
    // The last partial block, a word at a time, then its tail.
    let at = len - b_rest.len();
    let (a, b) = (a_rest.chunks(8), b_rest.chunks(8));
    for (k, (x, y)) in a.zip(b).enumerate() {
        let d = word(x) ^ word(y);
        if d != 0 {
            runs.word(at + 8 * k, d);
        }
    }
    if runs.cost >= len {
        return Some(Change::Full(new));
    }
    Some(Change::Patch(
        runs.runs
            .into_iter()
            .map(|(s, e)| (s, &new[s..e]))
            .collect(),
    ))
}

/// Payload bytes of a link header: version, kind, seq, parent digest and
/// the section count.
const LINK_HEADER_LEN: usize = 2 + 8 + 8 + 4;

/// What one link carries, decided but not yet written: every section (a
/// base) or the changes since the parent (a delta), which borrow the new
/// sections' bytes.
enum Body<'a> {
    Base(&'a [Section]),
    Delta {
        sections: usize,
        changed: Vec<(usize, Change<'a>)>,
    },
}

impl<'a> Body<'a> {
    /// The delta from `parent` to `sections`. A section that is the
    /// parent's own allocation is unchanged without a look at its bytes;
    /// one past the parent's last is always carried, even when empty, so
    /// that a delta's section count is bounded by its parent's and its
    /// changes (see [`apply_delta`]).
    fn delta(parent: &[Section], sections: &'a [Section]) -> Self {
        let mut changed = Vec::new();
        for (idx, new) in sections.iter().enumerate() {
            let change = match parent.get(idx) {
                Some(old) if Arc::ptr_eq(old, new) => continue,
                Some(old) => diff_section(old, new),
                None => Some(Change::Full(new)),
            };
            if let Some(c) = change {
                changed.push((idx, c));
            }
        }
        Body::Delta {
            sections: sections.len(),
            changed,
        }
    }

    /// Payload bytes, version and kind included.
    fn payload_len(&self) -> usize {
        LINK_HEADER_LEN
            + match self {
                Body::Base(sections) => sections.iter().map(|s| 4 + s.len()).sum::<usize>(),
                Body::Delta { changed, .. } => {
                    4 + changed
                        .iter()
                        .map(|(_, c)| 4 + c.encoded_len())
                        .sum::<usize>()
                }
            }
    }

    /// The sealed link's length, without writing it.
    fn sealed_len(&self) -> usize {
        self.payload_len() + CONTAINER_OVERHEAD
    }

    /// Write the link into a container sized for it and seal it.
    fn seal(&self, seq: u64, parent_digest: u64) -> Vec<u8> {
        let tag = match self {
            Body::Base(_) => TAG_CHAIN_BASE,
            Body::Delta { .. } => TAG_CHAIN_DELTA,
        };
        let mut w = begin_sized(tag, self.payload_len());
        w.u64(seq);
        w.u64(parent_digest);
        match self {
            Body::Base(sections) => {
                w.len(sections.len());
                for s in sections.iter() {
                    w.len(s.len());
                    w.bytes(s);
                }
            }
            Body::Delta { sections, changed } => {
                w.len(*sections);
                w.len(changed.len());
                for (idx, change) in changed {
                    // Indices and offsets are positions, not lengths — the
                    // reader's `len()` sanity bound does not apply to them.
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
            }
        }
        w.seal()
    }
}

fn read_sections_of_base(r: &mut Reader) -> Result<Vec<Section>, CkptError> {
    let n = r.len()?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.len()?;
        sections.push(r.bytes(len)?.into());
    }
    Ok(sections)
}

/// Apply one delta payload (reader positioned past the header) to the
/// parent's sections. Unchanged sections stay shared with the parent; a
/// patched one is copied once, so the parent is intact when the delta
/// turns out bad halfway.
fn apply_delta(r: &mut Reader, parent: &[Section]) -> Result<Vec<Section>, CkptError> {
    // The section count is not a length of bytes in this payload (most
    // sections stay the parent's), so the reader's `len()` bound does not
    // apply to it; every section past the parent's is a change, which
    // bounds it instead.
    let n_total = r.u32()? as usize;
    let n_changed = r.len()?;
    if n_total > parent.len() + n_changed {
        return Err(r
            .corrupt(format!(
                "delta has {n_total} sections, its parent {} and {n_changed} changes",
                parent.len()
            ))
            .into());
    }
    let mut sections: Vec<Section> = parent.iter().take(n_total).cloned().collect();
    sections.resize(n_total, Arc::from([]));
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
                sections[idx] = r.bytes(len)?.into();
            }
            1 => {
                let n_runs = r.len()?;
                for _ in 0..n_runs {
                    let offset = r.u64()? as usize;
                    let len = r.len()?;
                    let bytes = r.bytes(len)?;
                    let sec = &mut sections[idx];
                    // `offset` is any u64 the link cared to carry.
                    let Some(end) = offset.checked_add(len).filter(|end| *end <= sec.len()) else {
                        return Err(r
                            .corrupt(format!(
                                "patch run {offset}+{len} past section {idx} end {}",
                                sec.len()
                            ))
                            .into());
                    };
                    Arc::make_mut(sec)[offset..end].copy_from_slice(bytes);
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
    pub sections: Vec<Section>,
    /// Why the walk stopped early, when `valid_links < links.len()`.
    pub error: Option<CkptError>,
}

/// One link of a chain as the snapshot it stands for: its sections and
/// its seal digest, which a child link names as its parent (0 for a link
/// [`ChainState::advance`] never sealed).
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    pub sections: Vec<Section>,
    pub digest: u64,
}

/// Walk `links` (base first), verifying every link's digest (one pass
/// over its bytes) and its version, kind, sequence, and parent digest at
/// every hop, applying deltas as it goes. Never fails outright: a damaged
/// link simply ends the valid prefix, which is the deepest valid ancestor
/// rollback degrades to.
pub fn resolve_prefix(links: &[Vec<u8>]) -> ResolveOutcome {
    let mut valid_links = 0;
    let (sections, error) = walk(links, |_| valid_links += 1);
    ResolveOutcome {
        valid_links,
        sections,
        error,
    }
}

/// [`resolve_prefix`], keeping the snapshot of every valid link, base
/// first: a warm start's in-process chain, resolved once.
pub fn resolve_all(links: &[Vec<u8>]) -> (Vec<Resolved>, Option<CkptError>) {
    let mut resolved = Vec::with_capacity(links.len());
    let (_, error) = walk(links, |link| resolved.push(link.clone()));
    (resolved, error)
}

/// The walk behind [`resolve_prefix`] and [`resolve_all`]: `each` sees
/// every link that validated and applied, in order. Returns the last such
/// link's sections and the error that ended the walk early.
fn walk(links: &[Vec<u8>], mut each: impl FnMut(&Resolved)) -> (Vec<Section>, Option<CkptError>) {
    let mut head = Resolved {
        sections: Vec::new(),
        digest: 0,
    };
    for (i, bytes) in links.iter().enumerate() {
        let step = || -> Result<Resolved, CkptError> {
            let (info, digest, mut r) = open_link(bytes)?;
            let sections = if i == 0 {
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
                if info.parent_digest != head.digest {
                    return Err(CkptError::ChainBroken {
                        seq: info.seq,
                        message: format!(
                            "parent digest {:#018x} does not match {:#018x}",
                            info.parent_digest, head.digest
                        ),
                    });
                }
                apply_delta(&mut r, &head.sections)?
            };
            Ok(Resolved { sections, digest })
        };
        match step() {
            Ok(next) => {
                head = next;
                each(&head);
            }
            Err(e) => return (head.sections, Some(e)),
        }
    }
    (head.sections, None)
}

/// Incremental chain encoder: holds the sections of the chain head so
/// the next [`ChainState::push`] or [`ChainState::advance`] can diff
/// against them.
#[derive(Debug, Default, Clone)]
pub struct ChainState {
    sections: Vec<Section>,
    head_digest: u64,
    next_seq: u64,
}

/// One link a chain advanced by without writing it
/// ([`ChainState::advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub seq: u64,
    pub is_base: bool,
    /// The sealed link's length: what [`ChainState::push`] would have
    /// returned as `bytes.len()`.
    pub len: usize,
}

impl Link {
    /// What this link advanced its chain by.
    pub fn step(&self) -> Step {
        Step {
            seq: self.seq,
            is_base: self.is_base,
            len: self.bytes.len(),
        }
    }
}

impl ChainState {
    /// An empty encoder — the first push always produces a base.
    pub fn new() -> Self {
        ChainState::default()
    }

    /// Rebuild the encoder at `head`, the last of the `links_in_chain`
    /// links of a chain (warm start, or rollback to a shorter prefix).
    pub fn resume(head: Resolved, links_in_chain: u64) -> Self {
        ChainState {
            sections: head.sections,
            head_digest: head.digest,
            next_seq: links_in_chain,
        }
    }

    /// The next link's sequence number and what it carries. `force_base`
    /// starts a fresh epoch (rebase); the first link of a chain is always
    /// a base regardless.
    fn next<'a>(&self, sections: &'a [Section], force_base: bool) -> (u64, Body<'a>) {
        if force_base || self.next_seq == 0 {
            (0, Body::Base(sections))
        } else {
            (self.next_seq, Body::delta(&self.sections, sections))
        }
    }

    /// Encode and seal the next link (see [`ChainState::advance`] for
    /// which kind it is).
    pub fn push(&mut self, sections: Vec<Section>, force_base: bool) -> Link {
        let (seq, body) = self.next(&sections, force_base);
        let bytes = body.seal(seq, self.head_digest);
        self.head_digest = seal_digest_of(&bytes);
        self.next_seq = seq + 1;
        self.sections = sections;
        Link {
            bytes,
            seq,
            is_base: seq == 0,
        }
    }

    /// Move the head to `sections` by one link that is diffed and sized
    /// but never written or digested: for a chain whose bytes nobody
    /// reads. `force_base` starts a fresh epoch (rebase); the first link
    /// of a chain is always a base regardless. The link has no seal
    /// digest, so a chain is advanced this way or sealed link by link
    /// with [`ChainState::push`], not both.
    pub fn advance(&mut self, sections: Vec<Section>, force_base: bool) -> Step {
        let (seq, body) = self.next(&sections, force_base);
        let len = body.sealed_len();
        self.head_digest = 0;
        self.next_seq = seq + 1;
        self.sections = sections;
        Step {
            seq,
            is_base: seq == 0,
            len,
        }
    }

    /// The chain head as a snapshot: its sections (what the next delta
    /// diffs against) and its seal digest.
    pub fn head(&self) -> Resolved {
        Resolved {
            sections: self.sections.clone(),
            digest: self.head_digest,
        }
    }
}

/// A standalone full snapshot is just a single-link chain.
pub fn base_link(sections: &[Section]) -> Vec<u8> {
    Body::Base(sections).seal(0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(parts: &[&[u8]]) -> Vec<Section> {
        parts.iter().map(|p| Section::from(*p)).collect()
    }

    /// [`diff_section`] a byte at a time, as the definition reads.
    fn diff_ref<'a>(old: &[u8], new: &'a [u8]) -> Option<Change<'a>> {
        if old == new {
            return None;
        }
        if old.len() != new.len() {
            return Some(Change::Full(new));
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < new.len() {
            if old[i] == new[i] {
                i += 1;
                continue;
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
            return Some(Change::Full(new));
        }
        Some(Change::Patch(
            runs.into_iter().map(|(s, e)| (s, &new[s..e])).collect(),
        ))
    }

    #[test]
    fn word_wise_diff_matches_the_byte_definition() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cases = 0;
        let mut check = |old: &[u8], new: &[u8]| {
            assert_eq!(
                diff_section(old, new),
                diff_ref(old, new),
                "len {} old {old:?} new {new:?}",
                old.len()
            );
            cases += 1;
        };
        for len in 0..=300usize {
            let old: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for percent in [0, 1, 2, 5, 10, 25, 50, 75, 90, 100] {
                for _ in 0..6 {
                    let mut new = old.clone();
                    for b in &mut new {
                        if next() % 100 < percent {
                            *b ^= 1 + (next() % 255) as u8;
                        }
                    }
                    check(&old, &new);
                }
            }
            for k in [1, 2, 7, 8, 9, 15, 16, 17, 64, len / 2, len] {
                let mut new = old.clone();
                for b in new.iter_mut().take(k) {
                    *b = !*b;
                }
                check(&old, &new);
            }
        }
        assert!(cases >= 20_000, "{cases} cases");
    }

    /// A float array's section: its tag, its length and its elements.
    fn f32_section(v: &[f32]) -> Vec<u8> {
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for x in v {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes
    }

    /// The block-wise diff against the byte definition on sections shaped
    /// like a checkpoint's array sections, whose 5-byte header puts every
    /// float across a block edge somewhere: whole arrays rewritten,
    /// alternating changed and equal blocks, one byte at either side of
    /// each block edge, and every length around one block count.
    #[test]
    fn block_wise_diff_matches_the_byte_definition_on_array_sections() {
        let mut cases = 0;
        let mut check = |old: &[u8], new: &[u8], what: &str| {
            assert_eq!(
                diff_section(old, new),
                diff_ref(old, new),
                "{what}, len {}",
                old.len()
            );
            cases += 1;
        };
        for n in [1023usize, 1024, 1025] {
            let v: Vec<f32> = (0..n).map(|i| i as f32 * 0.75 + 1.0).collect();
            let old = f32_section(&v);
            let halved: Vec<f32> = v.iter().map(|x| x * 0.5).collect();
            check(&old, &f32_section(&halved), "every float halved");
            let mut tail_halved = v.clone();
            for x in &mut tail_halved[n / 2..] {
                *x *= 0.5;
            }
            check(&old, &f32_section(&tail_halved), "second half halved");
            // One run after the header that costs exactly the section's
            // length (a full replacement), and one a byte shorter.
            for short in [0, 1] {
                let mut new = old.clone();
                let end = old.len() - RUN_OVERHEAD + 5 - short;
                new[5..end].iter_mut().for_each(|x| *x = !*x);
                check(&old, &new, &format!("one run to {end}"));
            }
            for first in [0, 1] {
                let mut new = old.clone();
                for (b, block) in new.chunks_mut(BLOCK).enumerate() {
                    if b % 2 == first {
                        block.iter_mut().for_each(|x| *x = !*x);
                    }
                }
                check(&old, &new, "alternating blocks");
            }
            for edge in (BLOCK..old.len()).step_by(BLOCK) {
                for at in [edge - 1, edge] {
                    let mut new = old.clone();
                    new[at] ^= 0x40;
                    check(&old, &new, &format!("one byte at {at}"));
                    // And a second byte a gap away on the block's other
                    // side, as long or a byte shorter than the merge gap.
                    for gap in [RUN_MERGE_GAP - 1, RUN_MERGE_GAP, RUN_MERGE_GAP + 1] {
                        if let Some(b) = new.get_mut(at + gap) {
                            *b ^= 0x40;
                            check(&old, &new, &format!("bytes at {at} and {}", at + gap));
                            new[at + gap] ^= 0x40;
                        }
                    }
                }
            }
        }
        for len in 4096..=4105usize {
            let old: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            for stride in [1, 3, 9, 17, 63, 64, 65] {
                let mut new = old.clone();
                for b in new.iter_mut().step_by(stride) {
                    *b ^= 0x81;
                }
                check(&old, &new, &format!("every {stride}th byte"));
            }
            let mut last = old.clone();
            last[len - 1] ^= 1;
            check(&old, &last, "the last byte");
            let all: Vec<u8> = old.iter().map(|b| !b).collect();
            check(&old, &all, "every byte");
        }
        assert!(cases >= 1_000, "{cases} cases");
    }

    /// The payload is written into a buffer sized for it up front: a
    /// wrong size estimate would show as spare capacity (or a regrowth).
    #[test]
    fn links_are_sealed_into_exactly_presized_buffers() {
        let mesh: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();
        let mut touched = mesh.clone();
        touched[100] ^= 1;
        touched[3000..3100].fill(7);
        let mut enc = ChainState::new();
        for s in [
            snap(&[b"hdr", &mesh, b"q"]),
            snap(&[b"hdr", &touched, b"queue-grew", b"new"]),
            snap(&[b"hdr"]),
        ] {
            let link = enc.push(s, false);
            assert_eq!(link.bytes.capacity(), link.bytes.len(), "seq {}", link.seq);
        }
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

    /// A delta's section count is no length of its own bytes: a world of
    /// many sections of which none changed still resolves, and so does
    /// one that appends an empty section.
    #[test]
    fn many_unchanged_sections_and_an_appended_empty_one_resolve() {
        let many: Vec<Section> = (0..64u8).map(|i| Section::from(&[i; 3][..])).collect();
        let copy: Vec<Section> = many.iter().map(|s| Section::from(&s[..])).collect();
        let mut grown = copy.clone();
        grown.push(Section::from(&[][..]));
        let mut enc = ChainState::new();
        let links: Vec<Vec<u8>> = [many, copy, grown.clone()]
            .into_iter()
            .map(|s| enc.push(s, false).bytes)
            .collect();
        let out = resolve_prefix(&links);
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.valid_links, 3);
        assert_eq!(out.sections, grown);
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
            let mut w = crate::ckpt::begin(TAG_CHAIN_DELTA);
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
            let out = resolve_prefix(&[base.bytes.clone(), w.seal()]);
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
        let (resolved, error) = resolve_all(&[l0.bytes.clone(), l1.bytes.clone()]);
        assert!(error.is_none(), "{error:?}");
        let mut resumed = ChainState::resume(resolved[1].clone(), 2);
        let s2 = snap(&[b"ALPHA", b"BETA"]);
        let l2 = resumed.push(s2.clone(), false);
        assert_eq!(l2.seq, 2);
        let out = resolve_prefix(&[l0.bytes, l1.bytes, l2.bytes]);
        assert_eq!(out.valid_links, 3);
        assert_eq!(out.sections, s2);
    }

    /// `resolve_all` holds, per valid link, what `resolve_prefix` of the
    /// prefix ending there resolves to, and the digest that seals it.
    #[test]
    fn resolve_all_keeps_every_prefix() {
        let mut enc = ChainState::new();
        let mut links: Vec<Vec<u8>> = [
            snap(&[b"h0", b"aaaaaaaaaaaaaaaaaaaa"]),
            snap(&[b"h1", b"aaaaaaaaaXaaaaaaaaaa"]),
            snap(&[b"h2", b"aaaaaaaaaXaaaaaaaaaa", b"more"]),
            snap(&[b"h3"]),
        ]
        .into_iter()
        .map(|s| enc.push(s, false).bytes)
        .collect();
        let (resolved, error) = resolve_all(&links);
        assert!(error.is_none(), "{error:?}");
        assert_eq!(resolved.len(), links.len());
        for (k, link) in resolved.iter().enumerate() {
            assert_eq!(
                link.sections,
                resolve_prefix(&links[..=k]).sections,
                "link {k}"
            );
            assert_eq!(link.digest, seal_digest_of(&links[k]), "link {k}");
        }
        assert_eq!(enc.head(), resolved[3]);
        // A damaged link ends the list where `resolve_prefix` stops.
        let last = links[2].len() - 1;
        links[2][last] ^= 1;
        let (resolved, error) = resolve_all(&links);
        assert_eq!(resolved.len(), resolve_prefix(&links).valid_links);
        assert_eq!(resolved.len(), 2);
        assert!(error.is_some());
    }

    #[test]
    fn base_link_round_trips_standalone() {
        let s = snap(&[b"only"]);
        let bytes = base_link(&s);
        let (info, ..) = open_link(&bytes).unwrap();
        let base = LinkInfo {
            is_base: true,
            seq: 0,
            parent_digest: 0,
        };
        assert_eq!(info, base);
        let out = resolve_prefix(&[bytes]);
        assert_eq!(out.valid_links, 1);
        assert_eq!(out.sections, s);
    }
}
