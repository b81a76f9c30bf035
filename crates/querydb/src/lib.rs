//! # querydb — the incremental query pipeline
//!
//! A revision-counted [`Database`] of memoized compilation queries in the
//! demand-driven style of rust-analyzer's salsa: every query records the
//! inputs it read while executing, memos are re-validated against those
//! recorded dependencies, and a re-executed query whose output hash is
//! unchanged performs an *early cutoff* — its dependents stay valid and
//! are never re-run.
//!
//! The query graph, bottom to top:
//!
//! ```text
//! source_text(file)                 — input, set by set_source / edit
//!   └─ parse(file)                  — memo on the text hash
//!        └─ item_tree(class)        — declaration skeleton, bodies stripped
//!             ├─ typeck_body(body)  — one method / ctor / field initializer
//!             │    └─ lower_fn(spec)— one shape-specialized NIR function
//!             │         └─ program(entry) — assembled + optimized Translated
//!             └─ (early cutoff: a body edit re-parses the file, but the
//!                item tree hash is unchanged, so *other* bodies' typeck
//!                and lower memos revalidate without re-running)
//! ```
//!
//! **Determinism contract.** An incremental re-translate produces a
//! [`Translated`] artifact whose encoding ([`Translated::encode`], which
//! holds only what translation decided, never pass timings) is
//! bit-identical to a from-scratch translate of the same sources at the
//! same revision. Function-id
//! assignment is DFS discovery order and the coding rules forbid
//! recursion, so replaying memoized functions in their recorded
//! callee-edge order reproduces the exact ids, names, and instruction
//! stream; any replay mismatch falls back to fresh lowering, which is
//! canonical by construction.
//!
//! All fingerprints are span-free (see the `fp` module): whitespace and comment
//! edits re-run the parser, early-cutoff at the item tree, and invalidate
//! nothing downstream.
//!
//! **Bodies are shared, skeletons are owned.** A body — untyped or typed —
//! is an immutable `Arc` from the parser on. The parse memo and the table
//! built from it hold the same untyped bodies; a `typeck_body` memo and
//! every revision's [`ClassTable`] it is valid for hold the same typed
//! body. A rebuild therefore copies declaration skeletons (names,
//! signatures, layouts) and bumps counts, and what an edit allocates and
//! frees is what it re-parsed and re-checked.

#![forbid(unsafe_code)]

mod fp;

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use jlang::ast;
use jlang::span::{DiagResult, Diagnostic, Span};
use jlang::table::{self, ClassTable};
use jlang::tast::TBody;
use jlang::typeck::{self, Member};
use jlang::types::ClassId;
use jvm::{Jvm, Value};
use nir::hash::Fingerprint;
use nir::FuncId;
use translator::{
    EntrySpec, FnMemo, Lowerer, MemberRef, Mode, ReplayState, SpecKey, TResult, TraceState,
    TransConfig, TransError, Translated,
};

nir::counters! {
    /// Cumulative query counters. Snapshot with [`Database::stats`] before
    /// and after an operation and subtract ([`QueryStats::since`]) to get the
    /// per-operation deltas, as the facade's `JitCode::query_stats` does for
    /// one `jit` call.
    pub struct QueryStats [since] {
        parse_executed,
        parse_reused,
        typeck_executed,
        typeck_reused,
        rules_executed,
        rules_reused,
        lower_executed,
        lower_reused,
        /// `program(entry)` runs (never memoized here — the facade's
        /// artifact cache is the program-level memo).
        translates,
        /// Re-executed queries whose output hash was unchanged, sparing all
        /// dependents.
        early_cutoffs,
    }
}

impl QueryStats {
    /// Total queries executed (cache misses).
    pub fn executed(&self) -> u64 {
        self.parse_executed
            + self.typeck_executed
            + self.rules_executed
            + self.lower_executed
            + self.translates
    }

    /// Total queries served from memos.
    pub fn reused(&self) -> u64 {
        self.parse_reused + self.typeck_reused + self.rules_reused + self.lower_reused
    }
}

nir::counters! {
    /// Cumulative wall time of [`Database`]'s snapshot rebuilds, lap by lap
    /// in the order a rebuild runs them (nanoseconds, beside the counters
    /// of [`QueryStats`] and read the same way: snapshot with
    /// [`Database::rebuild_laps`], subtract with [`RebuildLaps::since`]).
    /// A rebuild that stops early — diagnostics, or nothing semantic
    /// changed — adds only the laps it ran.
    pub struct RebuildLaps [since] {
        rebuilds,
        /// Re-parse of every file whose text changed.
        parse_ns,
        /// Per-class fingerprints of re-parsed files, and the semantic
        /// fingerprint of the whole source set.
        item_tree_ns,
        /// Handing every parsed unit to `table::build`: a copy of its
        /// declaration skeleton, a count bump per body.
        hand_over_ns,
        table_build_ns,
        /// Validating every `typeck_body` memo and re-running stale ones.
        typeck_ns,
        /// Installing each body's memo in the new table, by pointer.
        write_back_ns,
        /// Indexing and installing the snapshot; retires the previous one.
        install_ns,
    }
}

/// Fingerprint of `Object` (class id 0): fixed, it has no declaration.
const OBJECT_FP: u64 = 0x4f42_4a45_4354_5f30;

// ---- internal memo structures ------------------------------------------

struct FileEntry {
    name: String,
    text: String,
    hash: u64,
}

struct ParseMemo {
    text_hash: u64,
    unit: ast::Unit,
}

/// Per-class source fingerprints at one revision, with the [`ClassId`]
/// the table assigns. Equality of two metas means: same skeleton, same
/// id, and byte-for-byte-equivalent (modulo spans) bodies.
#[derive(Clone, PartialEq)]
struct ClassMeta {
    name: String,
    id: ClassId,
    item: u64,
    /// Untyped body fp per method index (0 = no body).
    methods: Vec<u64>,
    /// Untyped ctor fp (0 = no ctor body).
    ctor: u64,
    /// Instance field initializer fps, by instance-field index (0 = none).
    inits: Vec<u64>,
    /// Static field initializer fps, by static index (0 = none).
    statics: Vec<u64>,
}

impl ClassMeta {
    /// Untyped source fingerprint of one body.
    fn src(&self, member: Member) -> u64 {
        match member {
            Member::Method(mi) => self.methods[mi as usize],
            Member::Ctor => self.ctor,
            Member::Init { is_static, index } => {
                let inits = if is_static {
                    &self.statics
                } else {
                    &self.inits
                };
                inits[index as usize]
            }
        }
    }
}

/// The class metas of one file with what they were derived from: the
/// file's text and the id its first class was given. A rebuild that finds
/// both unchanged keeps the metas instead of fingerprinting every body of
/// the file again.
struct FileMetas {
    text_hash: u64,
    first: u32,
    classes: Vec<ClassMeta>,
}

fn meta_of(c: &ast::ClassDecl, id: ClassId) -> ClassMeta {
    let mut methods = Vec::with_capacity(c.methods.len());
    for m in &c.methods {
        methods.push(m.body.as_deref().map_or(0, fp::body_fp));
    }
    let mut inits = Vec::new();
    let mut statics = Vec::new();
    for f in &c.fields {
        let v = f.init.as_deref().map_or(0, fp::body_fp);
        if f.modifiers.is_static {
            statics.push(v);
        } else {
            inits.push(v);
        }
    }
    ClassMeta {
        name: c.name.clone(),
        id,
        item: fp::item_fp(c, id),
        methods,
        ctor: c.ctor.as_ref().map_or(0, |ct| fp::body_fp(&ct.body)),
        inits,
        statics,
    }
}

/// A memoized `typeck_body` result.
struct TypeckMemo {
    /// Untyped source fingerprint of this body.
    src: u64,
    /// Item fingerprints of every class the body resolved against
    /// (hierarchy-closed), at execution time.
    deps: Vec<(ClassId, u64)>,
    /// Hash of the typed output — the early-cutoff value.
    thash: u64,
    /// The typed body itself. Every snapshot's table that this memo was
    /// valid for holds this same allocation.
    typed: Arc<TBody>,
    /// What the coding rules read from the typed body, computed with it
    /// and shared the same way.
    facts: Arc<jrules::BodyFacts>,
}

/// A memoized `lower_fn` result plus its recorded dependency set.
struct StoredMemo {
    memo: Arc<FnMemo>,
    /// Item fingerprints of the classes whose shapes/signatures this
    /// function's lowering depends on (hierarchy-closed).
    class_deps: Vec<(ClassId, u64)>,
    /// Typed-body hashes of every body the lowering read.
    body_deps: Vec<(ClassId, MemberRef, u64)>,
    /// Devirtualization reads the subclass structure of the whole
    /// program (`is_leaf`), which no single item fp covers.
    hierarchy_fp: u64,
    /// Static-global layout and constant values.
    globals_fp: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct LowerKey {
    mode: Mode,
    opt: nir::OptConfig,
    key: SpecKey,
    device: bool,
    kernel: bool,
}

/// The derived state at one revision: the fully typed table plus the
/// fingerprint indexes memo validation reads.
struct Snapshot {
    table: ClassTable,
    sem_fp: u64,
    hierarchy_fp: u64,
    globals_fp: u64,
    /// Item fingerprint per class id.
    item_fp: Vec<u64>,
    /// Typed-output hash per body.
    thash: HashMap<(ClassId, Member), u64>,
    /// Combined ctor + instance-initializer typed hash per class (the
    /// bundle a `new`-site inlining reads).
    ctor_bundle: HashMap<ClassId, u64>,
    /// Every body's rule facts, the memos' own.
    facts: jrules::ProgramFacts,
}

// ---- the database -------------------------------------------------------

/// The incremental compilation database. Inputs are named source files
/// ([`Self::set_source`] / [`Self::edit`], each bumping the revision);
/// derived state is rebuilt eagerly through the memoized query pipeline,
/// and [`Self::translate`] replays still-valid per-function lowering
/// memos.
///
/// The environment (`wootinj::WootinJ`) borrows [`Self::table`] for the
/// lifetime of a revision; the borrow checker therefore enforces the
/// edit discipline — all live environments (and their heaps, whose
/// object layouts came from the old table) must be dropped before the
/// next `edit`.
#[derive(Default)]
pub struct Database {
    revision: u64,
    files: Vec<FileEntry>,
    parse: Vec<Option<ParseMemo>>,
    /// Per-file class metas of the last rebuild (early-cutoff baseline).
    metas: Vec<FileMetas>,
    typeck: HashMap<(ClassId, Member), TypeckMemo>,
    snapshot: Option<Snapshot>,
    lower: RefCell<HashMap<LowerKey, StoredMemo>>,
    /// Semantic fingerprints whose rules check passed. Failures are
    /// never cached, so fixing a violation always re-checks.
    rules_ok: RefCell<HashSet<u64>>,
    stats: RefCell<QueryStats>,
    laps: RebuildLaps,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current revision (0 until the first `set_source`).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Cumulative query counters.
    pub fn stats(&self) -> QueryStats {
        *self.stats.borrow()
    }

    /// Cumulative wall time of the rebuilds so far, lap by lap.
    pub fn rebuild_laps(&self) -> RebuildLaps {
        self.laps
    }

    /// The typed class table at the current revision (`None` if no
    /// sources are set or the last edit failed to compile).
    pub fn table(&self) -> Option<&ClassTable> {
        self.snapshot.as_ref().map(|s| &s.table)
    }

    /// Every typed method and constructor body of the current table, as
    /// the shared pointers the table holds. A caller that keeps one
    /// revision's across an edit can ask which bodies of the next revision
    /// are the same allocations ([`Arc::ptr_eq`]) and which are new.
    pub fn typed_blocks(&self) -> Vec<((ClassId, Member), Arc<TBody>)> {
        let mut out = Vec::new();
        for info in self.table().into_iter().flat_map(ClassTable::iter) {
            for (mi, m) in info.methods.iter().enumerate() {
                if let Some(body) = &m.body {
                    out.push(((info.id, Member::Method(mi as u32)), Arc::clone(body)));
                }
            }
            if let Some(body) = info.ctor.as_ref().and_then(|c| c.body.as_ref()) {
                out.push(((info.id, Member::Ctor), Arc::clone(body)));
            }
        }
        out
    }

    /// Every function the `lower_fn` memos hold, as the shared pointers a
    /// replaying [`Self::translate`] puts in its program. Held across an
    /// edit and a translate, they tell which of the new program's
    /// functions were lowered afresh ([`Arc::ptr_eq`] to none of them).
    pub fn lowered_functions(&self) -> Vec<Arc<nir::Function>> {
        (self.lower.borrow().values())
            .map(|sm| Arc::clone(&sm.memo.func))
            .collect()
    }

    /// Whitespace-insensitive fingerprint of the whole source set —
    /// stable across processes, so it scopes persisted artifact-store
    /// keys to program semantics. 0 when no snapshot exists.
    pub fn source_fingerprint(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |s| s.sem_fp)
    }

    /// Set (or add) a source file and rebuild through the query
    /// pipeline. Returns the new revision; `Err` carries front-end
    /// diagnostics and leaves the database without a valid snapshot
    /// (memos survive and revalidate on the next successful edit).
    pub fn set_source(&mut self, name: &str, text: &str) -> DiagResult<u64> {
        self.upsert(name, text);
        self.rebuild()?;
        Ok(self.revision)
    }

    /// Set (or add) a source file without compiling it: the next
    /// [`Self::set_source`] / [`Self::edit`] builds it with everything
    /// else, in one rebuild instead of two. Until then the database has
    /// no snapshot, since none describes its inputs. Returns the new
    /// revision.
    pub fn stage_source(&mut self, name: &str, text: &str) -> u64 {
        self.upsert(name, text);
        self.snapshot = None;
        self.revision
    }

    fn upsert(&mut self, name: &str, text: &str) {
        let hash = nir::fnv1a64(text.as_bytes());
        match self.files.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                f.text = text.to_string();
                f.hash = hash;
            }
            None => {
                self.files.push(FileEntry {
                    name: name.to_string(),
                    text: text.to_string(),
                    hash,
                });
                self.parse.push(None);
            }
        }
        self.revision += 1;
    }

    /// Edit an *existing* source file (typo-proof variant of
    /// [`Self::set_source`]).
    pub fn edit(&mut self, name: &str, text: &str) -> DiagResult<u64> {
        if !self.files.iter().any(|f| f.name == name) {
            return Err(vec![Diagnostic::error(
                "querydb",
                Span::default(),
                format!("edit of unknown source file `{name}`"),
            )]);
        }
        self.set_source(name, text)
    }

    // ---- snapshot rebuild (parse → item tree → typeck) ------------------

    fn rebuild(&mut self) -> DiagResult<()> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let mut reparsed = vec![false; self.files.len()];
        let mut lap_start = Instant::now();
        // Nanoseconds since the previous lap ended.
        let mut lap = move || {
            let now = Instant::now();
            let ns = (now - lap_start).as_nanos() as u64;
            lap_start = now;
            ns
        };
        self.laps.rebuilds += 1;

        for (i, fe) in self.files.iter().enumerate() {
            if self.parse[i]
                .as_ref()
                .is_some_and(|m| m.text_hash == fe.hash)
            {
                self.stats.get_mut().parse_reused += 1;
                continue;
            }
            reparsed[i] = true;
            self.stats.get_mut().parse_executed += 1;
            match jlang::parser::parse_unit(i as u32, &fe.text) {
                Ok(unit) => {
                    self.parse[i] = Some(ParseMemo {
                        text_hash: fe.hash,
                        unit,
                    })
                }
                Err(ds) => {
                    self.parse[i] = None;
                    diags.extend(ds);
                }
            }
        }
        self.laps.parse_ns += lap();
        if !diags.is_empty() {
            self.snapshot = None;
            return Err(diags);
        }

        // Item-tree pass: per-class source fingerprints with predicted
        // class ids (Object = 0, then declaration order across files —
        // exactly `table::build`'s assignment). Only a file whose text or
        // whose place in the id sequence changed is fingerprinted again.
        let mut next = 1u32;
        for (i, p) in self.parse.iter().enumerate() {
            // A failed parse returned its diagnostics above.
            let memo = p.as_ref().expect("parsed above");
            let first = next;
            next += memo.unit.classes.len() as u32;
            let old = self.metas.get(i);
            let unchanged =
                if old.is_some_and(|o| o.text_hash == memo.text_hash && o.first == first) {
                    true
                } else {
                    let classes: Vec<ClassMeta> = (memo.unit.classes.iter().zip(first..))
                        .map(|(c, id)| meta_of(c, ClassId(id)))
                        .collect();
                    let unchanged = old.is_some_and(|o| o.classes == classes);
                    let fresh = FileMetas {
                        text_hash: memo.text_hash,
                        first,
                        classes,
                    };
                    match self.metas.get_mut(i) {
                        Some(slot) => *slot = fresh,
                        None => self.metas.push(fresh),
                    }
                    unchanged
                };
            // Early cutoff at the item tree: the file re-parsed but nothing
            // semantic changed (e.g. whitespace/comment edits).
            if reparsed[i] && unchanged {
                self.stats.get_mut().early_cutoffs += 1;
            }
        }

        let mut sem = Fingerprint::seeded(0x7365_6d66); // "semf"
        for (fe, ms) in self.files.iter().zip(&self.metas) {
            sem.str(&fe.name).u32(ms.classes.len() as u32);
            for m in &ms.classes {
                sem.str(&m.name).u64(m.item).u64(m.ctor);
                for v in m.methods.iter().chain(&m.inits).chain(&m.statics) {
                    sem.u64(*v);
                }
            }
        }
        let sem_fp = sem.finish();
        self.laps.item_tree_ns += lap();

        if self.snapshot.as_ref().is_some_and(|s| s.sem_fp == sem_fp) {
            // Nothing semantic changed: the entire derived state is
            // reused as-is.
            return Ok(());
        }

        // `table::build` consumes its units and the parse memos keep
        // theirs: what is copied is each declaration's skeleton, and every
        // body is the memo's own allocation with one more owner.
        let units: Vec<ast::Unit> = self
            .parse
            .iter()
            // A failed parse returned its diagnostics above.
            .map(|p| p.as_ref().expect("parsed above").unit.clone())
            .collect();
        self.laps.hand_over_ns += lap();
        let built = table::build(units);
        self.laps.table_build_ns += lap();
        let mut table = match built {
            Ok(t) => t,
            Err(ds) => {
                self.snapshot = None;
                return Err(ds);
            }
        };

        // Item fingerprints by id (Object at 0 is constant).
        let mut item_fp = vec![0u64; table.classes.len()];
        item_fp[0] = OBJECT_FP;
        for m in self.metas.iter().flat_map(|f| &f.classes) {
            debug_assert_eq!(table.name(m.id), m.name, "class id prediction drifted");
            item_fp[m.id.0 as usize] = m.item;
        }
        let flat: HashMap<ClassId, &ClassMeta> = (self.metas.iter())
            .flat_map(|f| &f.classes)
            .map(|m| (m.id, m))
            .collect();

        let hierarchy_fp = hierarchy_fp(&table);
        let globals_fp = globals_fp(&table, &flat);

        // typeck_body queries: validate memos, re-run stale ones.
        let mut bodies: Vec<(ClassId, Member)> = Vec::new();
        let mut fresh: Vec<((ClassId, Member), TypeckMemo)> = Vec::new();
        for info in table.iter().skip(1) {
            let id = info.id;
            let Some(meta) = flat.get(&id) else { continue };
            for member in typeck::unchecked_members(info) {
                let bid = (id, member);
                let src = meta.src(member);
                bodies.push(bid);
                let old = self.typeck.get(&bid);
                let valid = old.is_some_and(|m| {
                    m.src == src
                        && (m.deps.iter()).all(|(c, f)| item_fp.get(c.0 as usize) == Some(f))
                });
                if valid {
                    self.stats.get_mut().typeck_reused += 1;
                    continue;
                }
                self.stats.get_mut().typeck_executed += 1;
                match typeck::check_member(&table, id, member) {
                    Ok(typed) => {
                        let (thash, mut refs) = fp::thash_and_refs(&typed);
                        if old.is_some_and(|old| old.thash == thash) {
                            // Re-ran, but the typed output is unchanged:
                            // lower memos over this body stay valid.
                            self.stats.get_mut().early_cutoffs += 1;
                        }
                        refs.push(id);
                        let deps = dep_fps(&table, &refs, &item_fp);
                        let memo = TypeckMemo {
                            src,
                            deps,
                            thash,
                            facts: Arc::new(jrules::BodyFacts::of(&typed)),
                            typed,
                        };
                        fresh.push((bid, memo));
                    }
                    Err(ds) => diags.extend(ds),
                }
            }
        }
        self.laps.typeck_ns += lap();

        if !diags.is_empty() {
            self.snapshot = None;
            return Err(diags);
        }

        self.typeck.extend(fresh);
        let class_count = table.classes.len() as u32;
        self.typeck.retain(|(id, _), _| id.0 < class_count);

        // Write-back: every body of the table, and its facts, is its
        // memo's, by pointer.
        let mut thash: HashMap<(ClassId, Member), u64> = HashMap::with_capacity(bodies.len());
        let mut facts = jrules::ProgramFacts::default();
        for bid in bodies {
            let memo = &self.typeck[&bid];
            thash.insert(bid, memo.thash);
            facts.insert(bid.0, bid.1, Arc::clone(&memo.facts));
            typeck::install(&mut table, bid.0, bid.1, Arc::clone(&memo.typed));
        }
        self.laps.write_back_ns += lap();

        // The typed ctor bundle per class: what a `new`-site inlining
        // reads (ctor + every instance initializer).
        let mut ctor_bundle = HashMap::new();
        for info in table.iter().skip(1) {
            let mut h = Fingerprint::seeded(0x6264_6c65); // "bdle"
            h.u64(*thash.get(&(info.id, Member::Ctor)).unwrap_or(&0));
            for i in 0..info.fields.len() {
                h.u64(
                    *thash
                        .get(&(
                            info.id,
                            Member::Init {
                                is_static: false,
                                index: i as u32,
                            },
                        ))
                        .unwrap_or(&0),
                );
            }
            ctor_bundle.insert(info.id, h.finish());
        }

        self.snapshot = Some(Snapshot {
            table,
            sem_fp,
            hierarchy_fp,
            globals_fp,
            item_fp,
            thash,
            ctor_bundle,
            facts,
        });
        self.laps.install_ns += lap();
        Ok(())
    }

    // ---- program query ---------------------------------------------------

    /// Translate `recv.method(args)` at the current revision — the
    /// incremental analogue of [`translator::translate`], replaying every
    /// still-valid `lower_fn` memo. `jvm` must have been built against
    /// [`Self::table`] at this revision.
    ///
    /// The determinism contract: the returned artifact's
    /// [`Translated::encode`] bytes are identical to a from-scratch
    /// translate of the same sources.
    pub fn translate(
        &self,
        jvm: &Jvm<'_>,
        recv: &Value,
        method: &str,
        args: &[Value],
        config: TransConfig,
    ) -> TResult<Translated> {
        let snap = self
            .snapshot
            .as_ref()
            .ok_or_else(|| TransError::new("query database has no compiled snapshot"))?;
        let table = &snap.table;
        self.stats.borrow_mut().translates += 1;

        if config.check_rules {
            translator::check_entry_class(table, jvm, recv)?;
            // rules(program) memo: passing verdicts only, keyed by the
            // semantic fingerprint — a failure is always re-checked.
            if self.rules_ok.borrow().contains(&snap.sem_fp) {
                self.stats.borrow_mut().rules_reused += 1;
            } else {
                self.stats.borrow_mut().rules_executed += 1;
                let report = jrules::check_program_with(table, &snap.facts);
                if !report.is_ok() {
                    return Err(TransError::new(format!(
                        "coding-rule violations:\n{}",
                        report.render()
                    )));
                }
                self.rules_ok.borrow_mut().insert(snap.sem_fp);
            }
        }

        let spec = translator::entry_spec(table, jvm, recv, method, args, config.mode)?;
        let EntrySpec::Shaped(key) = &spec else {
            // Virtual mode compiles the whole class closure in one
            // monolithic pass — there is no per-function query to memoize,
            // so it delegates to the classic path (rules already checked).
            let mut inner = config;
            inner.check_rules = false;
            return translator::translate(table, jvm, recv, method, args, inner);
        };

        let replay_memos = self.valid_lower_memos(snap, &config);
        // Replayed functions are final (memos hold optimized bodies, their
        // spliced callees included); fresh ones are optimized as they are
        // added, in id order.
        let mut lw = Lowerer::new(table, config.mode == Mode::Full, config.opt);
        lw.trace = Some(TraceState::default());
        lw.replay = Some(ReplayState::new(replay_memos));
        let entry = translator::lower_entry(&mut lw, key)?;
        let trace = lw.trace.take().unwrap_or_default();
        let replay = lw.replay.take().unwrap_or_default();
        let translated = translator::finish_shaped(lw, entry, key, args.len(), &replay.replayed)?;

        // Only a program that verified fills the memo.
        self.harvest(snap, &config, &trace, &translated.program);
        let mut s = self.stats.borrow_mut();
        s.lower_executed += trace.recs.len() as u64;
        s.lower_reused += replay.reused;
        Ok(translated)
    }

    /// Validate every stored `lower_fn` memo for this configuration
    /// against the current snapshot; invalid ones are dropped.
    fn valid_lower_memos(
        &self,
        snap: &Snapshot,
        config: &TransConfig,
    ) -> HashMap<(SpecKey, bool, bool), Arc<FnMemo>> {
        let mut valid = HashMap::new();
        let mut store = self.lower.borrow_mut();
        store.retain(|lk, sm| {
            if lk.mode != config.mode || lk.opt != config.opt {
                return true; // other configurations: keep, don't validate
            }
            let ok = sm.hierarchy_fp == snap.hierarchy_fp
                && sm.globals_fp == snap.globals_fp
                && sm
                    .class_deps
                    .iter()
                    .all(|(c, f)| snap.item_fp.get(c.0 as usize) == Some(f))
                && sm.body_deps.iter().all(|(c, m, th)| {
                    let cur = match m {
                        MemberRef::Method(mi) => snap.thash.get(&(*c, Member::Method(*mi))),
                        MemberRef::Ctor => snap.ctor_bundle.get(c),
                    };
                    cur == Some(th)
                });
            if ok {
                valid.insert((lk.key.clone(), lk.device, lk.kernel), Arc::clone(&sm.memo));
            }
            ok
        });
        valid
    }

    /// Harvest this translate's trace records into `lower_fn` memos, with
    /// their optimized functions and the splice decision for each callee
    /// they could splice.
    fn harvest(
        &self,
        snap: &Snapshot,
        config: &TransConfig,
        trace: &TraceState,
        program: &nir::Program,
    ) {
        let mut store = self.lower.borrow_mut();
        for rec in &trace.recs {
            let mut classes: BTreeSet<ClassId> = BTreeSet::new();
            spec_classes(&rec.key, &mut classes);
            for e in &rec.callees {
                spec_classes(&e.key, &mut classes);
            }
            for b in &rec.bodies {
                classes.insert(b.class);
            }
            let closed = hier_close(&snap.table, classes);
            let class_deps = closed
                .into_iter()
                .map(|c| (c, *snap.item_fp.get(c.0 as usize).unwrap_or(&0)))
                .collect();
            let body_deps = rec
                .bodies
                .iter()
                .map(|b| {
                    let th = match b.member {
                        MemberRef::Method(mi) => snap
                            .thash
                            .get(&(b.class, Member::Method(mi)))
                            .copied()
                            .unwrap_or(0),
                        MemberRef::Ctor => snap.ctor_bundle.get(&b.class).copied().unwrap_or(0),
                    };
                    (b.class, b.member, th)
                })
                .collect();
            let func = &program.funcs[rec.id.0 as usize];
            let limit = config.opt.inline_limit;
            let mut inlined: Vec<(FuncId, Option<Arc<nir::Function>>)> = Vec::new();
            for e in rec.callees.iter().filter(|_| limit > 0) {
                let callee = &program.funcs[e.expect.0 as usize];
                if e.expect.0 < rec.id.0
                    && nir::kinds_splice(func.kind, callee.kind)
                    && !inlined.iter().any(|(id, _)| *id == e.expect)
                {
                    let spliced = callee.code.len() <= limit;
                    inlined.push((e.expect, spliced.then(|| Arc::clone(callee))));
                }
            }
            store.insert(
                LowerKey {
                    mode: config.mode,
                    opt: config.opt,
                    key: rec.key.clone(),
                    device: rec.device,
                    kernel: rec.kernel,
                },
                StoredMemo {
                    memo: Arc::new(FnMemo {
                        id: rec.id,
                        ret: rec.ret.clone(),
                        func: Arc::clone(func),
                        callees: rec.callees.clone(),
                        inlined,
                        bodies: rec.bodies.clone(),
                        excl: rec.excl,
                    }),
                    class_deps,
                    body_deps,
                    hierarchy_fp: snap.hierarchy_fp,
                    globals_fp: snap.globals_fp,
                },
            );
        }
    }
}

// ---- dependency helpers --------------------------------------------------

/// Classes named by a specialization key: the receiver class plus every
/// class appearing in the receiver/argument shapes.
fn spec_classes(key: &SpecKey, out: &mut BTreeSet<ClassId>) {
    out.insert(key.class);
    if let Some(s) = &key.recv {
        shape_classes(s, out);
    }
    for s in &key.args {
        shape_classes(s, out);
    }
}

fn shape_classes(s: &translator::Shape, out: &mut BTreeSet<ClassId>) {
    if let translator::Shape::Obj { class, fields } = s {
        out.insert(*class);
        for f in fields {
            shape_classes(f, out);
        }
    }
}

/// Close a class set over superclasses and implemented interfaces:
/// name resolution and layout walk these chains, so a change anywhere up
/// the hierarchy must invalidate dependents.
fn hier_close(table: &ClassTable, seed: BTreeSet<ClassId>) -> BTreeSet<ClassId> {
    let mut out = BTreeSet::new();
    let mut work: Vec<ClassId> = seed.into_iter().collect();
    while let Some(id) = work.pop() {
        if !out.insert(id) || id.0 as usize >= table.classes.len() {
            continue;
        }
        let info = table.class(id);
        if let Some((sup, _)) = &info.superclass {
            work.push(*sup);
        }
        for (i, _) in &info.interfaces {
            work.push(*i);
        }
    }
    out
}

fn dep_fps(table: &ClassTable, refs: &[ClassId], item_fp: &[u64]) -> Vec<(ClassId, u64)> {
    let seed: BTreeSet<ClassId> = refs.iter().copied().collect();
    hier_close(table, seed)
        .into_iter()
        .map(|c| (c, *item_fp.get(c.0 as usize).unwrap_or(&0)))
        .collect()
}

/// Whole-program inheritance-structure fingerprint: devirtualization
/// (`is_leaf`, `resolve_impl`) reads subclass sets, which no per-class
/// item fingerprint captures.
fn hierarchy_fp(table: &ClassTable) -> u64 {
    let mut h = Fingerprint::seeded(0x6869_6572); // "hier"
    for info in table.iter() {
        h.u32(info.id.0)
            .str(&info.name)
            .bool(info.is_interface)
            .bool(info.is_final)
            .bool(info.is_abstract);
        match &info.superclass {
            Some((s, _)) => h.u8(1).u32(s.0),
            None => h.u8(0),
        };
        h.u32(info.interfaces.len() as u32);
        for (i, _) in &info.interfaces {
            h.u32(i.0);
        }
        h.u32(info.methods.len() as u32);
        for m in &info.methods {
            h.str(&m.name)
                .bool(m.is_static)
                .bool(m.is_abstract)
                .bool(m.is_global)
                .bool(m.native.is_some());
        }
    }
    h.finish()
}

/// Static-global surface: layout order plus initializer sources. The
/// lowerer assigns global slots by scanning the whole table, so every
/// `lower_fn` memo depends on this.
fn globals_fp(table: &ClassTable, metas: &HashMap<ClassId, &ClassMeta>) -> u64 {
    let mut h = Fingerprint::seeded(0x676c_6f62); // "glob"
    for info in table.iter() {
        h.u32(info.id.0).u32(info.statics.len() as u32);
        for (i, s) in info.statics.iter().enumerate() {
            h.str(&s.name);
            h.u64(metas.get(&info.id).map_or(0, |m| m.statics[i]));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        @WootinJ final class Scale {
          float k;
          Scale(float k0) { k = k0; }
          float apply(float x) { return k * x; }
        }
        @WootinJ final class App {
          Scale s;
          App(Scale s0) { s = s0; }
          float run(float x) { return s.apply(x) + 1.0f; }
        }";

    fn jit(db: &Database, config: TransConfig) -> Translated {
        let table = db.table().unwrap();
        let mut jvm = Jvm::new(table).unwrap();
        let s = jvm.new_instance("Scale", &[Value::Float(2.0)]).unwrap();
        let app = jvm.new_instance("App", &[s]).unwrap();
        db.translate(&jvm, &app, "run", &[Value::Float(3.0)], config)
            .unwrap()
    }

    #[test]
    fn matches_classic_translate_bit_for_bit() {
        let mut db = Database::new();
        db.set_source("app.jl", SRC).unwrap();
        for config in [
            TransConfig::full(),
            TransConfig::devirt(),
            TransConfig::template_no_virt(),
        ] {
            let t = jit(&db, config);
            let table = jlang::compile_str(SRC).unwrap();
            let mut jvm = Jvm::new(&table).unwrap();
            let s = jvm.new_instance("Scale", &[Value::Float(2.0)]).unwrap();
            let app = jvm.new_instance("App", &[s]).unwrap();
            let classic =
                translator::translate(&table, &jvm, &app, "run", &[Value::Float(3.0)], config)
                    .unwrap();
            assert_eq!(
                t.encode(),
                classic.encode(),
                "{config:?} diverged from classic translate"
            );
        }
    }

    #[test]
    fn value_edit_reuses_other_bodies_and_stays_bit_identical() {
        let mut db = Database::new();
        db.set_source("app.jl", SRC).unwrap();
        let cold = jit(&db, TransConfig::full());

        let edited = SRC.replace("k * x", "k * x + 0.5f");
        db.edit("app.jl", &edited).unwrap();
        let before = db.stats();
        let warm = jit(&db, TransConfig::full());
        let d = db.stats().since(&before);

        // Only `apply`'s function re-lowers; `run` and the ctor chain
        // replay. (run's spec calls apply, so run re-lowers too — exactly
        // the edited body's function plus its transitive callers.)
        assert!(d.lower_reused > 0, "no memo replayed: {d:?}");
        assert_ne!(cold.encode(), warm.encode());

        // Bit-identity vs a from-scratch database at the same revision.
        let mut fresh = Database::new();
        fresh.set_source("app.jl", &edited).unwrap();
        let scratch = jit(&fresh, TransConfig::full());
        assert_eq!(warm.encode(), scratch.encode());
    }

    #[test]
    fn whitespace_edit_early_cutoffs_everything() {
        let mut db = Database::new();
        db.set_source("app.jl", SRC).unwrap();
        jit(&db, TransConfig::full());
        let fp0 = db.source_fingerprint();

        let before = db.stats();
        db.edit("app.jl", &format!("{SRC}\n\n  // a trailing comment\n"))
            .unwrap();
        let d = db.stats().since(&before);
        assert_eq!(d.parse_executed, 1);
        assert_eq!(d.typeck_executed, 0, "{d:?}");
        assert!(d.early_cutoffs >= 1, "{d:?}");
        assert_eq!(db.source_fingerprint(), fp0);
    }

    /// `n` one-method classes, one per file, and nothing that ties them.
    fn cells(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                let text = format!(
                    "@WootinJ final class Cell{i} {{
                       float bias = {i}.5f;
                       Cell{i}() {{ }}
                       float f(float x) {{ return x * {i}f + bias; }}
                     }}"
                );
                (format!("cell{i}.jl"), text)
            })
            .collect()
    }

    #[test]
    fn an_edit_shares_every_unchanged_body_with_its_memo_and_the_previous_revision() {
        let mut db = Database::new();
        let files = cells(9);
        for (name, text) in &files {
            db.set_source(name, text).unwrap();
        }
        // One revision's bodies, held across the edit.
        let before = db.typed_blocks();
        assert_eq!(before.len(), 18, "nine methods, nine constructors");

        let edited = files[4].1.replace("+ bias", "+ bias + 1f");
        let stats = db.stats();
        db.edit("cell4.jl", &edited).unwrap();
        assert_eq!(db.stats().since(&stats).typeck_executed, 1);

        let cell4 = db.table().unwrap().by_name("Cell4").unwrap();
        let after = db.typed_blocks();
        assert_eq!(after.len(), before.len());
        for ((bid, body), (old_bid, old)) in after.iter().zip(&before) {
            assert_eq!(bid, old_bid);
            assert!(
                Arc::ptr_eq(body, &db.typeck[bid].typed),
                "{bid:?}: the table copied its memo"
            );
            let edited = *bid == (cell4, Member::Method(0));
            assert_eq!(
                Arc::ptr_eq(body, old),
                !edited,
                "{bid:?}: only the edited body is a new allocation"
            );
        }
        // Initializers are shared the same way (`super(...)` arguments are
        // part of their constructor's body).
        let table = db.table().unwrap();
        for info in table.iter().skip(1) {
            let init = info.fields[0].init.as_ref().unwrap();
            let bid = (
                info.id,
                Member::Init {
                    is_static: false,
                    index: 0,
                },
            );
            assert!(Arc::ptr_eq(init, &db.typeck[&bid].typed), "{bid:?}");
        }
    }

    /// [`cells`] plus an `App` that calls every cell.
    fn cells_app(n: usize) -> Vec<(String, String)> {
        let fields: String = (0..n).map(|i| format!("Cell{i} c{i}; ")).collect();
        let params: Vec<String> = (0..n).map(|i| format!("Cell{i} a{i}")).collect();
        let inits: String = (0..n).map(|i| format!("c{i} = a{i}; ")).collect();
        let calls: Vec<String> = (0..n).map(|i| format!("c{i}.f(x)")).collect();
        let app = format!(
            "@WootinJ final class App {{ {fields} App({}) {{ {inits}}} \
             float run(float x) {{ return {}; }} }}",
            params.join(", "),
            calls.join(" + ")
        );
        let mut files = cells(n);
        files.push(("app.jl".into(), app));
        files
    }

    fn jit_cells(db: &Database, n: usize) -> Translated {
        let table = db.table().unwrap();
        let mut jvm = Jvm::new(table).unwrap();
        let cells: Vec<Value> = (0..n)
            .map(|i| jvm.new_instance(&format!("Cell{i}"), &[]).unwrap())
            .collect();
        let app = jvm.new_instance("App", &cells).unwrap();
        db.translate(&jvm, &app, "run", &[Value::Float(3.0)], TransConfig::full())
            .unwrap()
    }

    /// Every body's rule facts, as the memos hold them.
    fn held_facts(db: &Database) -> HashMap<(ClassId, Member), Arc<jrules::BodyFacts>> {
        (db.typeck.iter())
            .map(|(bid, memo)| (*bid, Arc::clone(&memo.facts)))
            .collect()
    }

    /// How many of `t`'s functions are none of `held`.
    fn fresh_functions(t: &Translated, held: &[Arc<nir::Function>]) -> usize {
        (t.program.funcs.iter())
            .filter(|f| !held.iter().any(|h| Arc::ptr_eq(f, h)))
            .count()
    }

    #[test]
    fn an_edit_shares_every_unchanged_bodys_facts_and_every_replayed_function() {
        let n = 6;
        let mut db = Database::new();
        let files = cells_app(n);
        for (name, text) in &files {
            db.set_source(name, text).unwrap();
        }
        jit_cells(&db, n);

        // A one-body edit.
        let facts = held_facts(&db);
        let funcs = db.lowered_functions();
        let edited = files[4].1.replace("+ bias", "+ bias + 1f");
        let stats = db.stats();
        db.edit("cell4.jl", &edited).unwrap();
        let t = jit_cells(&db, n);
        let d = db.stats().since(&stats);
        assert_eq!(d.typeck_executed, 1, "{d:?}");

        let cell4 = db.table().unwrap().by_name("Cell4").unwrap();
        assert_eq!(db.typeck.len(), facts.len());
        for (bid, memo) in &db.typeck {
            assert_eq!(*memo.facts, jrules::BodyFacts::of(&memo.typed), "{bid:?}");
            let edited = *bid == (cell4, Member::Method(0));
            assert_eq!(
                Arc::ptr_eq(&memo.facts, &facts[bid]),
                !edited,
                "{bid:?}: only the edited body's facts are new"
            );
        }
        assert!(d.lower_executed > 0 && d.lower_reused > 0, "{d:?}");
        assert_eq!(
            fresh_functions(&t, &funcs) as u64,
            d.lower_executed,
            "a replayed function was copied"
        );

        // A whitespace-only edit shares everything.
        let facts = held_facts(&db);
        let funcs = db.lowered_functions();
        let stats = db.stats();
        db.edit("cell4.jl", &format!("{edited}\n  // a comment\n"))
            .unwrap();
        let t = jit_cells(&db, n);
        let d = db.stats().since(&stats);
        assert_eq!((d.typeck_executed, d.lower_executed), (0, 0), "{d:?}");
        for (bid, memo) in &db.typeck {
            assert!(Arc::ptr_eq(&memo.facts, &facts[bid]), "{bid:?}");
        }
        assert_eq!(fresh_functions(&t, &funcs), 0);
    }

    #[test]
    fn the_rules_check_over_kept_facts_is_the_batch_check() {
        // A violation in each kind of body: initializer, constructor, method.
        let bad = "@WootinJ final class Bad { int x; int y = Bad.helper(); \
                     Bad(int v) { if (v > 0) { x = v; } else { x = 0; } } \
                     static int helper() { return 1; } \
                     int m(int p) { p = 2; return p; } }";
        let mut db = Database::new();
        db.set_source("app.jl", SRC).unwrap();
        db.set_source("bad.jl", bad).unwrap();
        let check = |db: &Database| {
            let snap = db.snapshot.as_ref().unwrap();
            let kept = jrules::check_program_with(&snap.table, &snap.facts).render();
            assert_eq!(kept, jrules::check_program(&snap.table).render());
            kept
        };
        let before = check(&db);
        for needle in ["initializer of `Bad.y`", "constructor of `Bad`", "rule 3"] {
            assert!(before.contains(needle), "{needle}: {before}");
        }
        db.edit("bad.jl", &bad.replace("p = 2;", "p = 3; x = p;"))
            .unwrap();
        assert_ne!(check(&db), before);
    }

    #[test]
    fn parse_error_then_recovery_revalidates_memos() {
        let mut db = Database::new();
        db.set_source("app.jl", SRC).unwrap();
        jit(&db, TransConfig::full());
        assert!(db.edit("app.jl", "class {").is_err());
        assert!(db.table().is_none());
        db.edit("app.jl", SRC).unwrap();
        let before = db.stats();
        jit(&db, TransConfig::full());
        let d = db.stats().since(&before);
        assert_eq!(d.lower_executed, 0, "memos lost across error: {d:?}");
    }
}
