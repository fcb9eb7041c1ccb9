//! Program images with labelled barrier sites, and size-invariant rewriting.
//!
//! The paper compiles its targets "with illegal, but uniquely identifiable,
//! instruction sequences replacing all invocations of memory model macros"
//! and then rewrites the binary per test, keeping "the binary size of all
//! code sections invariant regardless of the test" (§4.3). This module is
//! that mechanism: platform code is a sequence of [`Segment`]s — literal
//! instructions interleaved with named *sites* — and [`SiteRewriter`] links
//! an image into a runnable [`Program`] by lowering every site under a
//! fencing strategy, optionally appending an injected cost function, and
//! padding with `nop`s to a per-site envelope that is identical across all
//! variants under comparison.
//!
//! The measurement paths never link. An image is split into two
//! shareable halves: an [`ImageCode`] indexes its sites into a path list
//! once, and a [`SiteTable`] holds one rewriter's lowering of every path.
//! Together they give the linked program's [`Digest`], composed from the
//! image's code digests and the table's site digests, and its code as
//! [`Code`] parts (`ImageParts`) that the simulator runs in place, with
//! results bit-identical to running the linked program. Many
//! configurations of one image are then many small tables, not many
//! linked programs. [`SiteRewriter::link`] still builds the whole program
//! for callers that want one.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::OnceLock;

use wmm_sim::isa::{pad_to, seq_size, AccessOrd, Instr};
use wmm_sim::machine::{Code, Program, WorkloadCtx};

use crate::costfn::CostFunction;
use crate::digest::{instrs_digest, program_head, Digest};
use crate::strategy::FencingStrategy;

/// One element of platform code: literal instructions, or a fencing-strategy
/// site identified by code path `P`.
#[derive(Debug, Clone)]
pub enum Segment<P> {
    /// Literal instructions (application/platform code).
    Code(Vec<Instr>),
    /// Literal instructions carrying an observability label. Linked exactly
    /// like [`Segment::Code`] — no strategy lowering, no padding — but
    /// [`SiteNames`] names them `t{t}:{label}#{occ}` instead of pooling
    /// them into `t{t}:code`. Platforms use this to tag accesses
    /// whose cost moves *between* segments across strategy variants (e.g. a
    /// volatile access that is a plain load under a barrier JIT but an
    /// acquire load under `ldar`/`stlr` lowering), so per-site profiles of
    /// the two variants join on the same row.
    Labeled(&'static str, Vec<Instr>),
    /// A code path where the fencing strategy is implemented.
    Site(P),
}

/// Flatten per-thread segment lists into raw instruction streams by
/// lowering every site through `strategy` — no padding, no cost
/// injection. This is the bridge between the platform lowerings and
/// analyses that consume bare streams (e.g. `wmm-analyze`'s program-graph
/// frontend).
pub fn flatten_streams<P>(
    threads: &[Vec<Segment<P>>],
    strategy: &dyn FencingStrategy<P>,
) -> Vec<Vec<Instr>> {
    threads
        .iter()
        .map(|segs| {
            let mut out = Vec::new();
            for seg in segs {
                match seg {
                    Segment::Code(is) | Segment::Labeled(_, is) => out.extend(is.iter().copied()),
                    Segment::Site(p) => out.extend(strategy.lower(p)),
                }
            }
            out
        })
        .collect()
}

/// A multi-threaded program image with labelled sites.
#[derive(Debug, Clone)]
pub struct Image<P> {
    /// Per-thread segment lists.
    pub threads: Vec<Vec<Segment<P>>>,
    /// Workload execution context (branch pressure, locality, noise).
    pub ctx: WorkloadCtx,
    /// Units of work the image performs, for throughput normalisation.
    pub work_units: f64,
}

impl<P: Clone + Eq + Hash> Image<P> {
    /// Count site occurrences per code path — the "invocation counter"
    /// baseline the paper discusses (and rejects as a *measurement* tool,
    /// but still uses to reason about sensitivity).
    pub fn site_counts(&self) -> HashMap<P, u64> {
        let mut counts = HashMap::new();
        for t in &self.threads {
            for seg in t {
                if let Segment::Site(p) = seg {
                    *counts.entry(p.clone()).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// All distinct code paths present in the image, in order of first
    /// appearance.
    pub fn paths(&self) -> Vec<P> {
        let mut paths = Vec::new();
        ImageCode::new(self, &mut paths);
        paths
    }
}

/// Where to inject the cost function.
#[derive(Debug, Clone)]
pub enum Injection<P> {
    /// No injection: the (nop-padded) base case.
    None,
    /// Inject at every site — Fig. 5's "all memory barriers" sweeps.
    All(CostFunction),
    /// Inject at sites of one code path only — Figs. 6 and 9.
    At(P, CostFunction),
    /// Inject at any site whose path is in the set. Used when code paths are
    /// *combined* barriers: injecting "into the StoreStore barrier" must hit
    /// every site whose combination contains StoreStore ("a code path will
    /// appear in multiple results", §4.2.1).
    Set(Vec<P>, CostFunction),
}

impl<P: PartialEq> Injection<P> {
    /// The cost function injected at `path`, if any.
    pub(crate) fn at(&self, path: &P) -> Option<CostFunction> {
        match self {
            Injection::None => None,
            Injection::All(cf) => Some(*cf),
            Injection::At(p, cf) => {
                if p == path {
                    Some(*cf)
                } else {
                    None
                }
            }
            Injection::Set(ps, cf) => {
                if ps.contains(path) {
                    Some(*cf)
                } else {
                    None
                }
            }
        }
    }
}

/// Links images into runnable programs under a (strategy, injection,
/// envelope) triple, asserting size invariance.
pub struct SiteRewriter<'a, P> {
    strategy: &'a dyn FencingStrategy<P>,
    injection: Injection<P>,
    envelope: HashMap<P, u64>,
}

impl<'a, P: Clone + Eq + Hash> SiteRewriter<'a, P> {
    /// Build a rewriter. `envelope` gives the fixed per-path site size in
    /// instruction words; use [`compute_envelope`] to derive it from the set
    /// of strategies under comparison.
    pub fn new(
        strategy: &'a dyn FencingStrategy<P>,
        injection: Injection<P>,
        envelope: HashMap<P, u64>,
    ) -> Self {
        SiteRewriter {
            strategy,
            injection,
            envelope,
        }
    }

    /// Lower one site to its final, envelope-padded sequence.
    pub fn lower_site(&self, path: &P) -> Vec<Instr> {
        let mut seq = self.strategy.lower(path);
        if let Some(cf) = self.injection.at(path) {
            seq.push(cf.instr());
        }
        let env = *self
            .envelope
            .get(path)
            .unwrap_or_else(|| panic!("no envelope for code path"));
        pad_to(seq, env)
    }

    /// Link an image into a runnable program. Every site of a given path
    /// produces exactly `envelope[path]` instruction words, so two programs
    /// linked from the same image with different strategies or injections
    /// have identical code layout.
    pub fn link(&self, image: &Image<P>) -> Program {
        let mut paths = Vec::new();
        let code = ImageCode::new(image, &mut paths);
        code.link(&self.site_table(&paths))
    }

    /// Lower every path of `paths` once, with its digest: the table
    /// [`ImageCode::parts`] and [`ImageCode::digest`] index sites into.
    pub(crate) fn site_table(&self, paths: &[P]) -> SiteTable {
        SiteTable {
            sites: paths
                .iter()
                .map(|p| {
                    let seq = self.lower_site(p);
                    let digest = instrs_digest(&seq);
                    (seq, digest)
                })
                .collect(),
        }
    }
}

/// One rewriter's lowering of every path of a path list (as built by
/// `ImageCode::new`): the envelope-padded sequence and its [`Digest`],
/// per path index. Built by `SiteRewriter::site_table`.
#[derive(Debug, Clone)]
pub struct SiteTable {
    sites: Vec<(Vec<Instr>, Digest)>,
}

/// One element of an [`ImageCode`] thread.
#[derive(Debug, Clone, Copy)]
enum Piece<'i> {
    /// Literal code ([`Segment::Code`] or [`Segment::Labeled`]).
    Code(&'i [Instr]),
    /// A site, by index into the shared path list.
    Site(usize),
}

/// An image's threads ready to run under any number of rewriters.
///
/// Sites become indices into a path list shared by every image of a batch,
/// so one [`SiteTable`] per rewriter serves all of them. The digests of
/// the literal code are computed once per image, on first use, and shared
/// by every configuration: a cell's `ImageCode::digest` composes them
/// with the table's site digests and equals
/// [`program_digest`](crate::digest::program_digest) of the linked program
/// without linking it.
#[derive(Debug)]
pub struct ImageCode<'i> {
    threads: Vec<Vec<Piece<'i>>>,
    /// One digest per code piece, in stream order.
    code_digests: OnceLock<Vec<Digest>>,
}

impl<'i> ImageCode<'i> {
    /// Index `image`'s sites into `paths`, appending paths not yet listed.
    /// Empty literal code is dropped: it contributes neither instructions
    /// nor digest, and would only cost the run loop a part boundary.
    pub(crate) fn new<P: Clone + PartialEq>(image: &'i Image<P>, paths: &mut Vec<P>) -> Self {
        let threads = image
            .threads
            .iter()
            .map(|segs| {
                segs.iter()
                    .filter_map(|seg| match seg {
                        Segment::Code(is) | Segment::Labeled(_, is) => {
                            (!is.is_empty()).then_some(Piece::Code(is))
                        }
                        // Images have thousands of sites over a handful of
                        // paths: an `Eq` scan beats hashing each site.
                        Segment::Site(p) => {
                            Some(Piece::Site(match paths.iter().position(|q| q == p) {
                                Some(i) => i,
                                None => {
                                    paths.push(p.clone());
                                    paths.len() - 1
                                }
                            }))
                        }
                    })
                    .collect()
            })
            .collect();
        ImageCode {
            threads,
            code_digests: OnceLock::new(),
        }
    }

    /// The image's code under `sites`, as the simulator runs it in place:
    /// each thread's parts are its literal code slices and the table's
    /// site lowerings, in stream order. Nothing is copied.
    pub(crate) fn parts<'a>(&'a self, sites: &'a SiteTable) -> ImageParts<'a> {
        ImageParts { code: self, sites }
    }

    /// Link under `sites`: the program [`SiteRewriter::link`] returns.
    fn link(&self, sites: &SiteTable) -> Program {
        let parts = self.parts(sites);
        let threads = (0..parts.threads())
            .map(|t| {
                let thread: Vec<&[Instr]> = (0..).map_while(|k| parts.part(t, k)).collect();
                thread.concat()
            })
            .collect();
        Program::new(threads)
    }

    /// The digest of the program [`SiteRewriter::link`] would return for
    /// this image under `sites`, composed from per-piece digests without
    /// linking.
    pub(crate) fn digest(&self, sites: &SiteTable) -> Digest {
        let codes = self.code_digests.get_or_init(|| {
            let code = self.threads.iter().flatten().filter_map(|p| match p {
                Piece::Code(is) => Some(instrs_digest(is)),
                Piece::Site(_) => None,
            });
            code.collect()
        });
        let mut codes = codes.iter();
        let mut d = program_head(self.threads.len());
        for pieces in &self.threads {
            let (mut len, mut thread) = (0, Digest::EMPTY);
            for p in pieces {
                let (n, pd) = match *p {
                    Piece::Code(is) => {
                        (is.len(), *codes.next().expect("one digest per code piece"))
                    }
                    Piece::Site(i) => (sites.sites[i].0.len(), sites.sites[i].1),
                };
                len += n;
                thread = thread.then(pd);
            }
            d = d.then_word(len as u64).then(thread);
        }
        d
    }
}

/// An [`ImageCode`] under one [`SiteTable`], as [`Code`] for the simulator
/// to run in place (see [`ImageCode::parts`]). Running it is bit-identical
/// to running the program [`SiteRewriter::link`] returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ImageParts<'a> {
    code: &'a ImageCode<'a>,
    sites: &'a SiteTable,
}

impl Code for ImageParts<'_> {
    fn threads(&self) -> usize {
        self.code.threads.len()
    }

    fn part(&self, thread: usize, part: usize) -> Option<&[Instr]> {
        Some(match *self.code.threads[thread].get(part)? {
            Piece::Code(is) => is,
            Piece::Site(i) => &self.sites.sites[i].0,
        })
    }
}

/// Stable names for the stall records of a sited run of an image: a
/// record's `(thread, index)`, with `index` linear in the thread's stream,
/// names the image segment its instruction came from.
///
/// Site instructions are named `t{thread}:{path:?}#{occ}` (`occ` counts
/// occurrences of the same path within the thread, in stream order);
/// [`Segment::Labeled`] code is named `t{thread}:{label}#{occ}` the same
/// way; ordered accesses inside unlabeled literal code — `ldar`/`stlr`
/// stand-ins a platform did not tag — get fallback `t{thread}:acq#{occ}` /
/// `t{thread}:rel#{occ}` names; the remaining literal platform code is
/// pooled under `t{thread}:code`. Names are a function of the *image* and
/// thread layout only — not of the strategy, injection, or seed — so
/// profiles from different variants of the same image join site-by-site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteNames {
    names: Vec<String>,
    /// Per thread, runs of instructions sharing a name, as `(end, name)`
    /// in stream order: one per segment, plus one per ordered access in
    /// unlabeled code. A run ends before linear index `end`.
    runs: Vec<Vec<(u32, u32)>>,
}

impl SiteNames {
    /// Name the instructions of `image` run under `sites`, a table over
    /// `paths` (the path list [`ImageCode::new`] indexed the image into):
    /// a site's run is as long as the table's lowering of its path.
    pub(crate) fn new<P: std::fmt::Debug + PartialEq>(
        image: &Image<P>,
        paths: &[P],
        sites: &SiteTable,
    ) -> Self {
        use AccessOrd::{Acquire, Release};
        let labels: Vec<String> = paths.iter().map(|p| format!("{p:?}")).collect();
        let mut out = SiteNames {
            names: Vec::new(),
            runs: Vec::new(),
        };
        for (t, segs) in image.threads.iter().enumerate() {
            let (mut occ, mut code) = (HashMap::new(), None);
            out.runs.push(Vec::new());
            for seg in segs {
                match seg {
                    // Ordered accesses are observation-worthy sites in
                    // their own right: a JIT that lowers volatiles to
                    // `ldar`/`stlr` emits no barrier segment, yet those
                    // accesses are exactly where the volatile cost moved.
                    // Name them individually; pool the rest.
                    Segment::Code(instrs) => {
                        for instr in instrs {
                            let label = match instr {
                                Instr::Load { ord: Acquire, .. } => Some("acq"),
                                Instr::Store { ord: Release, .. } => Some("rel"),
                                _ => None,
                            };
                            out.push(t, label, 1, &mut occ, &mut code);
                        }
                    }
                    Segment::Labeled(label, instrs) => {
                        out.push(t, Some(label), instrs.len(), &mut occ, &mut code);
                    }
                    Segment::Site(p) => {
                        let i = paths.iter().position(|q| q == p).expect("path listed");
                        let len = sites.sites[i].0.len();
                        out.push(t, Some(&labels[i]), len, &mut occ, &mut code);
                    }
                }
            }
        }
        out
    }

    /// Give thread `t`'s next `len` instructions one name: the thread's
    /// next occurrence of `label` (counted in `occ`, even when `len` is
    /// 0), or with no label its pooled-code name (`code`, made on first
    /// use).
    fn push<'l>(
        &mut self,
        t: usize,
        label: Option<&'l str>,
        len: usize,
        occ: &mut HashMap<&'l str, u32>,
        code: &mut Option<u32>,
    ) {
        let mut new_name = |name: String| {
            self.names.push(name);
            self.names.len() as u32 - 1
        };
        let id = match label {
            Some(l) => {
                let n = occ.entry(l).or_insert(0);
                let id = new_name(format!("t{t}:{l}#{n}"));
                *n += 1;
                id
            }
            None => *code.get_or_insert_with(|| new_name(format!("t{t}:code"))),
        };
        let runs = self.runs.last_mut().expect("a thread is open");
        let end = runs.last().map_or(0, |r| r.0) + len as u32;
        match runs.last_mut() {
            Some(last) if last.1 == id => last.0 = end,
            _ if len > 0 => runs.push((end, id)),
            _ => {}
        }
    }

    /// The name of instruction `index` of `thread`, if in range.
    pub fn name(&self, thread: usize, index: usize) -> Option<&str> {
        let runs = self.runs.get(thread)?;
        let &(_, id) = runs.get(runs.partition_point(|&(end, _)| end as usize <= index))?;
        Some(&self.names[id as usize])
    }

    /// Whether `name` denotes pooled literal code rather than a site.
    pub fn is_code(name: &str) -> bool {
        name.ends_with(":code")
    }
}

/// Compute the per-path envelope: the maximum lowered size over all
/// `strategies`, plus room for the largest injectable cost function
/// (`extra_words`: 5 for the stack-spilling variant, 3 otherwise).
pub fn compute_envelope<P: Clone + Eq + Hash>(
    paths: &[P],
    strategies: &[&dyn FencingStrategy<P>],
    extra_words: u64,
) -> HashMap<P, u64> {
    let mut env = HashMap::new();
    for p in paths {
        let max_lower = strategies
            .iter()
            .map(|s| seq_size(&s.lower(p)))
            .max()
            .unwrap_or(0);
        env.insert(p.clone(), max_lower + extra_words);
    }
    env
}

/// Total linked code size of a program in instruction words — used by tests
/// to assert the size-invariance property.
pub fn program_words(program: &Program) -> u64 {
    program.threads.iter().flatten().map(Instr::size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FnStrategy;
    use wmm_sim::isa::AccessOrd::{Acquire, Plain, Release};
    use wmm_sim::isa::{FenceKind, Loc};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Path {
        Enter,
        Exit,
    }

    fn image() -> Image<Path> {
        Image {
            threads: vec![vec![
                Segment::Code(vec![Instr::Alu, Instr::Alu]),
                Segment::Site(Path::Enter),
                Segment::Code(vec![Instr::Alu]),
                Segment::Site(Path::Exit),
                Segment::Site(Path::Enter),
            ]],
            ctx: WorkloadCtx::default(),
            work_units: 1.0,
        }
    }

    #[allow(clippy::type_complexity)]
    fn strategies() -> (
        FnStrategy<Path, impl Fn(&Path) -> Vec<Instr>>,
        FnStrategy<Path, impl Fn(&Path) -> Vec<Instr>>,
    ) {
        let a = FnStrategy::new("one-fence", |_: &Path| {
            vec![Instr::Fence(FenceKind::DmbIsh)]
        });
        let b = FnStrategy::new("two-fence", |p: &Path| match p {
            Path::Enter => vec![
                Instr::Fence(FenceKind::DmbIshLd),
                Instr::Fence(FenceKind::DmbIshSt),
            ],
            Path::Exit => vec![Instr::Fence(FenceKind::DmbIsh)],
        });
        (a, b)
    }

    #[test]
    fn site_counts_and_paths() {
        let img = image();
        let counts = img.site_counts();
        assert_eq!(counts[&Path::Enter], 2);
        assert_eq!(counts[&Path::Exit], 1);
        assert_eq!(img.paths().len(), 2);
    }

    #[test]
    fn linked_size_is_invariant_across_strategies_and_injection() {
        let img = image();
        let (a, b) = strategies();
        let cf = CostFunction {
            iters: 1 << 8,
            stack_spill: true,
        };
        let env = compute_envelope(&img.paths(), &[&a, &b], cf.size());

        let base_a = SiteRewriter::new(&a, Injection::None, env.clone()).link(&img);
        let base_b = SiteRewriter::new(&b, Injection::None, env.clone()).link(&img);
        let inj_a = SiteRewriter::new(&a, Injection::All(cf), env.clone()).link(&img);
        let inj_one = SiteRewriter::new(&a, Injection::At(Path::Enter, cf), env.clone()).link(&img);

        let sz = program_words(&base_a);
        for (name, p) in [
            ("base_b", &base_b),
            ("inj_a", &inj_a),
            ("inj_one", &inj_one),
        ] {
            assert_eq!(program_words(p), sz, "size changed for {name}");
        }
    }

    #[test]
    fn injection_at_targets_only_that_path() {
        let img = image();
        let (a, _) = strategies();
        let cf = CostFunction {
            iters: 4,
            stack_spill: false,
        };
        let env = compute_envelope(&img.paths(), &[&a], cf.size());
        let rw = SiteRewriter::new(&a, Injection::At(Path::Exit, cf), env);
        let prog = rw.link(&img);
        let loops = prog.threads[0]
            .iter()
            .filter(|i| matches!(i, Instr::CostLoop { .. }))
            .count();
        assert_eq!(loops, 1, "only the single Exit site gets the loop");
    }

    #[test]
    fn base_case_carries_nop_placeholder() {
        // §4.1: "we always inject a placeholder nop sequence into the base
        // case" — the envelope leaves room for the cost function, filled
        // with nops when nothing is injected.
        let img = image();
        let (a, _) = strategies();
        let cf = CostFunction {
            iters: 4,
            stack_spill: true,
        };
        let env = compute_envelope(&img.paths(), &[&a], cf.size());
        let rw = SiteRewriter::new(&a, Injection::None, env);
        let site = rw.lower_site(&Path::Enter);
        let nops = site.iter().filter(|i| matches!(i, Instr::Nop)).count();
        assert_eq!(nops as u64, cf.size());
    }

    #[test]
    fn site_names_follow_every_naming_rule() {
        let loc = Loc::SharedRw(1);
        let load = |ord| Instr::Load { loc, ord };
        let (ld, ldar) = (load(Plain), load(Acquire));
        let stlr = Instr::Store { loc, ord: Release };
        let (enter, exit) = (Segment::Site(Path::Enter), Segment::Site(Path::Exit));
        let img = Image {
            threads: vec![
                vec![
                    Segment::Code(vec![Instr::Alu, ldar, Instr::Alu, stlr, ldar]),
                    enter.clone(),
                    Segment::Labeled("ld", vec![ld]),
                    enter.clone(),
                    Segment::Labeled("ld", vec![ld, ld]),
                    Segment::Code(vec![Instr::Alu]),
                ],
                // An empty label still takes an occurrence number.
                vec![
                    exit,
                    Segment::Code(vec![Instr::Alu, Instr::Alu]),
                    Segment::Labeled("ld", vec![]),
                    Segment::Labeled("ld", vec![ld]),
                    enter,
                ],
            ],
            ctx: WorkloadCtx::default(),
            work_units: 1.0,
        };
        // The injected loop fills Enter's 4-word envelope with 2
        // instructions; Exit pads its fence with 3 nops. A site's run is
        // as long as the table's lowering, not its envelope in words.
        let cf = CostFunction {
            iters: 4,
            stack_spill: false,
        };
        let (a, _) = strategies();
        let env = compute_envelope(&img.paths(), &[&a], cf.size());
        let rw = SiteRewriter::new(&a, Injection::At(Path::Enter, cf), env);
        let mut paths = Vec::new();
        ImageCode::new(&img, &mut paths);
        let names = SiteNames::new(&img, &paths, &rw.site_table(&paths));
        let expected = [
            vec![
                "code", "acq#0", "code", "rel#0", "acq#1", "Enter#0", "Enter#0", "ld#0", "Enter#1",
                "Enter#1", "ld#1", "ld#1", "code",
            ],
            vec![
                "Exit#0", "Exit#0", "Exit#0", "Exit#0", "code", "code", "ld#1", "Enter#0",
                "Enter#0",
            ],
        ];
        let linked = rw.link(&img);
        for (t, want) in expected.iter().enumerate() {
            assert_eq!(linked.threads[t].len(), want.len(), "t{t} length");
            for (i, w) in want.iter().enumerate() {
                assert_eq!(
                    names.name(t, i),
                    Some(format!("t{t}:{w}").as_str()),
                    "t{t}:{i}"
                );
            }
            assert_eq!(names.name(t, want.len()), None);
        }
        assert_eq!(names.name(2, 0), None);
        // One run per segment, plus one per ordered access in unlabeled
        // code; the empty label adds none.
        assert_eq!(names.runs.iter().map(Vec::len).collect::<Vec<_>>(), [10, 4]);
        assert!(SiteNames::is_code("t0:code"));
        assert!(!SiteNames::is_code("t0:Enter#0"));
    }

    #[test]
    #[should_panic(expected = "cannot be padded")]
    fn oversized_lowering_rejected() {
        let (a, b) = strategies();
        // Envelope computed only from `a` cannot hold `b`'s two fences at
        // Enter once an injection is added... construct directly:
        let img = image();
        let env = compute_envelope(&img.paths(), &[&a], 0);
        let rw = SiteRewriter::new(&b, Injection::None, env);
        rw.link(&img);
    }
}
