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
//! Linking goes through two shareable halves: an [`ImageCode`] indexes an
//! image's sites into a path list once, and a [`SiteTable`] holds one
//! rewriter's lowering of every path. Together they link a program, or —
//! without linking — give its [`Digest`], composed from the image's code
//! digests and the table's site digests. Many configurations of one image
//! are then many small tables, not many linked programs.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::OnceLock;

use wmm_sim::isa::{pad_to, seq_size, AccessOrd, Instr};
use wmm_sim::machine::{Program, WorkloadCtx};

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
    /// [`SiteRewriter::link_sited`] names them `t{t}:{label}#{occ}` instead
    /// of pooling them into `t{t}:code`. Platforms use this to tag accesses
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

    /// All distinct code paths present in the image.
    pub fn paths(&self) -> Vec<P> {
        let mut seen = HashMap::new();
        let mut out = vec![];
        for t in &self.threads {
            for seg in t {
                if let Segment::Site(p) = seg {
                    if seen.insert(p.clone(), ()).is_none() {
                        out.push(p.clone());
                    }
                }
            }
        }
        out
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
    pub fn at(&self, path: &P) -> Option<CostFunction> {
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

    /// The largest instruction-word footprint this injection can add to any
    /// single site (for envelope computation).
    pub fn max_size(&self) -> u64 {
        match self {
            Injection::None => 0,
            Injection::All(cf) | Injection::At(_, cf) | Injection::Set(_, cf) => cf.size(),
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

    /// The strategy being applied.
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
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
    /// [`ImageCode::link`] and [`ImageCode::digest`] index sites into.
    pub fn site_table(&self, paths: &[P]) -> SiteTable {
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

    /// Like [`SiteRewriter::link`], but also produce a [`SiteMap`] that
    /// names every linked instruction after the image segment it came from.
    /// The program is identical to what `link` returns; the map is what lets
    /// the observability layer fold per-`(thread, index)` stall records into
    /// profiles keyed by stable, human-readable site names.
    pub fn link_sited(&self, image: &Image<P>) -> (Program, SiteMap)
    where
        P: std::fmt::Debug,
    {
        let mut lowered: Vec<(P, Vec<Instr>)> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut intern = |names: &mut Vec<String>, name: String| -> u32 {
            if let Some(&id) = ids.get(&name) {
                return id;
            }
            let id = names.len() as u32;
            ids.insert(name.clone(), id);
            names.push(name);
            id
        };
        let mut threads = Vec::with_capacity(image.threads.len());
        let mut map_threads = Vec::with_capacity(image.threads.len());
        for (t, segs) in image.threads.iter().enumerate() {
            let mut out = Vec::new();
            let mut map = Vec::new();
            let mut occ: HashMap<String, u64> = HashMap::new();
            for seg in segs {
                match seg {
                    Segment::Code(instrs) => {
                        // Ordered accesses are observation-worthy sites in
                        // their own right: a JIT that lowers volatiles to
                        // `ldar`/`stlr` emits no barrier segment, yet those
                        // accesses are exactly where the volatile cost
                        // moved. Name them individually; pool the rest.
                        for instr in instrs {
                            let label = match instr {
                                Instr::Load {
                                    ord: AccessOrd::Acquire,
                                    ..
                                } => Some("acq"),
                                Instr::Store {
                                    ord: AccessOrd::Release,
                                    ..
                                } => Some("rel"),
                                _ => None,
                            };
                            let id = match label {
                                Some(l) => {
                                    let n = occ.entry(l.to_string()).or_insert(0);
                                    let id = intern(&mut names, format!("t{t}:{l}#{n}"));
                                    *n += 1;
                                    id
                                }
                                None => intern(&mut names, format!("t{t}:code")),
                            };
                            out.push(*instr);
                            map.push(id);
                        }
                    }
                    Segment::Labeled(label, instrs) => {
                        let n = occ.entry((*label).to_string()).or_insert(0);
                        let id = intern(&mut names, format!("t{t}:{label}#{n}"));
                        *n += 1;
                        map.extend(std::iter::repeat_n(id, instrs.len()));
                        out.extend_from_slice(instrs);
                    }
                    Segment::Site(p) => {
                        let label = format!("{p:?}");
                        let n = occ.entry(label.clone()).or_insert(0);
                        let id = intern(&mut names, format!("t{t}:{label}#{n}"));
                        *n += 1;
                        let idx = match lowered.iter().position(|(q, _)| q == p) {
                            Some(i) => i,
                            None => {
                                lowered.push((p.clone(), self.lower_site(p)));
                                lowered.len() - 1
                            }
                        };
                        let seq = &lowered[idx].1;
                        map.extend(std::iter::repeat_n(id, seq.len()));
                        out.extend_from_slice(seq);
                    }
                }
            }
            threads.push(out);
            map_threads.push(map);
        }
        (
            Program::new(threads),
            SiteMap {
                names,
                threads: map_threads,
            },
        )
    }
}

/// One rewriter's lowering of every path of a path list (as built by
/// [`ImageCode::new`]): the envelope-padded sequence and its [`Digest`],
/// per path index. Built by [`SiteRewriter::site_table`].
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

/// An image's threads ready to be linked under any number of rewriters.
///
/// Sites become indices into a path list shared by every image of a batch,
/// so one [`SiteTable`] per rewriter serves all of them. The digests of
/// the literal code are computed once per image, on first use, and shared
/// by every configuration: a cell's [`ImageCode::digest`] composes them
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
    pub fn new<P: Clone + PartialEq>(image: &'i Image<P>, paths: &mut Vec<P>) -> Self {
        let threads = image
            .threads
            .iter()
            .map(|segs| {
                segs.iter()
                    .map(|seg| match seg {
                        Segment::Code(is) | Segment::Labeled(_, is) => Piece::Code(is),
                        // Images have thousands of sites over a handful of
                        // paths: an `Eq` scan beats hashing each site.
                        Segment::Site(p) => Piece::Site(match paths.iter().position(|q| q == p) {
                            Some(i) => i,
                            None => {
                                paths.push(p.clone());
                                paths.len() - 1
                            }
                        }),
                    })
                    .collect()
            })
            .collect();
        ImageCode {
            threads,
            code_digests: OnceLock::new(),
        }
    }

    /// Link under `sites`: the program [`SiteRewriter::link`] returns.
    pub fn link(&self, sites: &SiteTable) -> Program {
        let seq = |piece: &Piece<'i>| -> &[Instr] {
            match *piece {
                Piece::Code(is) => is,
                Piece::Site(i) => &sites.sites[i].0,
            }
        };
        let threads = self
            .threads
            .iter()
            .map(|pieces| {
                // Size first: one exact allocation per linked thread.
                let len = pieces.iter().map(|p| seq(p).len()).sum();
                let mut out = Vec::with_capacity(len);
                for p in pieces {
                    out.extend_from_slice(seq(p));
                }
                out
            })
            .collect();
        Program::new(threads)
    }

    /// The digest of the program [`ImageCode::link`] would return under
    /// `sites`, composed from per-piece digests without linking.
    pub fn digest(&self, sites: &SiteTable) -> Digest {
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

/// Maps every linked instruction back to the image segment it came from, by
/// interned name. Site instructions are named `t{thread}:{path:?}#{occ}`
/// (`occ` counts occurrences of the same path within the thread, in stream
/// order); [`Segment::Labeled`] code is named `t{thread}:{label}#{occ}` the
/// same way; ordered accesses inside unlabeled literal code — `ldar`/`stlr`
/// stand-ins a platform did not tag — get fallback `t{thread}:acq#{occ}` /
/// `t{thread}:rel#{occ}` names; the remaining literal platform code is
/// pooled under `t{thread}:code`. Names are a function of the *image* and
/// thread layout only — not of the strategy, injection, or seed — so
/// profiles from different variants of the same image join site-by-site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMap {
    names: Vec<String>,
    threads: Vec<Vec<u32>>,
}

impl SiteMap {
    /// The name of instruction `index` of `thread`, if in range.
    pub fn name(&self, thread: usize, index: usize) -> Option<&str> {
        let id = *self.threads.get(thread)?.get(index)?;
        self.names.get(id as usize).map(String::as_str)
    }

    /// All interned names, in first-appearance order.
    pub fn names(&self) -> &[String] {
        &self.names
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
    use wmm_sim::isa::FenceKind;

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
    fn link_sited_matches_link_and_names_every_instruction() {
        let img = image();
        let (a, _) = strategies();
        let env = compute_envelope(&img.paths(), &[&a], 0);
        let rw = SiteRewriter::new(&a, Injection::None, env);
        let plain = rw.link(&img);
        let (sited, map) = rw.link_sited(&img);
        assert_eq!(plain.threads, sited.threads);
        // Every instruction of every thread has a name...
        for (t, stream) in sited.threads.iter().enumerate() {
            for i in 0..stream.len() {
                assert!(map.name(t, i).is_some(), "unnamed instr t{t}:{i}");
            }
            assert!(map.name(t, stream.len()).is_none());
        }
        // ...and repeated sites of the same path get distinct names.
        let names = map.names();
        assert!(names.contains(&"t0:code".to_string()));
        assert!(names.contains(&"t0:Enter#0".to_string()));
        assert!(names.contains(&"t0:Enter#1".to_string()));
        assert!(names.contains(&"t0:Exit#0".to_string()));
        assert!(SiteMap::is_code("t0:code"));
        assert!(!SiteMap::is_code("t0:Enter#0"));
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
