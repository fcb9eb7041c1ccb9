//! Composable content digests of instruction streams.
//!
//! A simulation result is a function of the linked instruction stream, so
//! a result cache needs a digest of that stream. Linking a program just to
//! hash it throws away what size-invariant rewriting (§4.3) already knows:
//! every variant of an image is the same literal code with different site
//! lowerings spliced in. A *polynomial* digest lets the stream's digest be
//! assembled from digests of its pieces without materialising the stream.
//!
//! Each instruction is encoded as one or more canonical words below
//! `p = 2^61 − 1`; a word sequence `w_0 … w_{n−1}` digests
//! to `D(w) = Σ w_i · x^(n−1−i) mod p`, in two lanes with independent bases
//! `x`. Concatenation composes:
//!
//! ```text
//! D(A ‖ B) = D(A) · x^|B| + D(B)
//! ```
//!
//! so a [`Digest`] carries `x^len` beside the value, and
//! [`Digest::then`] joins two digests in four multiplications. The digest
//! of a linked program ([`program_digest`]) therefore equals the digest
//! composed from per-segment digests of an image and per-path digests of
//! a rewriter's lowered sites ([`crate::image::ImageCode`]).

use wmm_sim::isa::{AccessOrd, Instr, Loc, Mispredict};
use wmm_sim::machine::Program;

/// The Mersenne prime `2^61 − 1`: every lane value and every word is
/// below it.
const P: u64 = (1 << 61) - 1;

/// First word of every program stream. Nonzero, so streams of different
/// lengths never collide through leading zero words.
const PROGRAM_TAG: u64 = 0x5741_4d31; // "WMM1"

/// Per-lane bases `x`, fixed odd constants below `p`.
const BASE: [u64; 2] = [0x0d6e_8fe1_a5c3_47b9, 0x1f2b_9a03_76e4_c58d];

/// Words folded per Horner step.
const BLOCK: usize = 8;

/// `[x, x^2, …, x^8]` per lane, for the eight-word Horner step.
const POW: [[u64; BLOCK]; 2] = [powers(BASE[0]), powers(BASE[1])];

/// Reduce `v` modulo `p`, using `2^61 ≡ 1 (mod p)`: bits 0–60, 61–121
/// and 122–127 of `v` sum to below `2^63`.
#[inline(always)]
const fn reduce(v: u128) -> u64 {
    let r = (v as u64 & P) + ((v >> 61) as u64 & P) + (v >> 122) as u64;
    let r = (r & P) + (r >> 61);
    if r >= P {
        r - P
    } else {
        r
    }
}

#[inline(always)]
const fn mul(a: u64, b: u64) -> u64 {
    reduce(a as u128 * b as u128)
}

const fn powers(x: u64) -> [u64; BLOCK] {
    let mut out = [x; BLOCK];
    let mut k = 1;
    while k < BLOCK {
        out[k] = mul(out[k - 1], x);
        k += 1;
    }
    out
}

/// Horner's rule eight words at a time on both lanes: `h·x^8 + w0·x^7 +
/// … + w7` sums nine terms below `2^122` each, so one reduction serves
/// eight words. The word products are summed as a tree before `h` joins,
/// so only one multiplication per block waits on the previous block.
#[inline(always)]
fn block(h: &mut [u64; 2], w: &[u64; BLOCK]) {
    debug_assert!(w.iter().all(|&w| w < P));
    let m = |a: u64, b: u64| a as u128 * b as u128;
    for (h, x) in h.iter_mut().zip(&POW) {
        let words = (m(w[0], x[6]) + m(w[1], x[5]) + (m(w[2], x[4]) + m(w[3], x[3])))
            + (m(w[4], x[2]) + m(w[5], x[1]) + (m(w[6], x[0]) + w[7] as u128));
        *h = reduce(words + m(*h, x[7]));
    }
}

/// The two-lane polynomial digest of a word sequence, with `x^len` per
/// lane so digests compose under concatenation ([`Digest::then`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    h: [u64; 2],
    xp: [u64; 2],
}

impl Digest {
    /// The digest of the empty sequence: the identity of [`Digest::then`].
    pub(crate) const EMPTY: Digest = Digest {
        h: [0, 0],
        xp: [1, 1],
    };

    /// Digest a word sequence. Every word must be below `2^61 − 1`.
    pub fn of_words(words: &[u64]) -> Digest {
        let mut blocks = words.chunks_exact(BLOCK);
        let mut h = [0; 2];
        for b in &mut blocks {
            block(&mut h, b.try_into().expect("a full block"));
        }
        let d = Digest::after_blocks(h, words.len() / BLOCK);
        blocks.remainder().iter().fold(d, |d, &w| d.then_word(w))
    }

    /// The digest whose lanes are `h` after `blocks` full blocks: `x^len`
    /// is computed once here rather than carried through every block.
    fn after_blocks(h: [u64; 2], blocks: usize) -> Digest {
        let pow = |x: u64| {
            let (mut acc, mut base, mut n) = (1, x, blocks);
            while n > 0 {
                if n & 1 == 1 {
                    acc = mul(acc, base);
                }
                base = mul(base, base);
                n >>= 1;
            }
            acc
        };
        Digest {
            h,
            xp: [pow(POW[0][BLOCK - 1]), pow(POW[1][BLOCK - 1])],
        }
    }

    /// Append one word (below `2^61 − 1`).
    #[inline]
    pub(crate) fn then_word(self, w: u64) -> Digest {
        debug_assert!(w < P);
        let mut d = self;
        for (l, x) in POW.iter().enumerate() {
            d.h[l] = reduce(d.h[l] as u128 * x[0] as u128 + w as u128);
            d.xp[l] = mul(d.xp[l], x[0]);
        }
        d
    }

    /// The digest of `self`'s sequence followed by `next`'s.
    #[inline]
    pub fn then(self, next: Digest) -> Digest {
        let mut d = self;
        for l in 0..2 {
            d.h[l] = reduce(d.h[l] as u128 * next.xp[l] as u128 + next.h[l] as u128);
            d.xp[l] = mul(d.xp[l], next.xp[l]);
        }
        d
    }

    /// Both lanes as one 128-bit value (each lane below `2^61`).
    pub fn to_u128(self) -> u128 {
        (u128::from(self.h[0]) << 64) | u128::from(self.h[1])
    }
}

/// Payloads up to this many bits share the instruction's first word.
const INLINE_BITS: u32 = 48;

/// The most canonical words one instruction encodes to (a `Cas` with a
/// wide location).
const MAX_WORDS: usize = 5;

/// Split a full 64-bit value into two canonical words.
#[inline]
fn halves(v: u64) -> [u64; 2] {
    [v >> 32, v & 0xffff_ffff]
}

/// Write `head` (tag and small fields, below `2^12`) with `payload` to
/// `out`: inline above a clear flag bit when it fits, else behind a set
/// flag bit as two extra words. Returns the words written.
#[inline(always)]
fn packed(head: u64, payload: u64, out: &mut [u64]) -> usize {
    debug_assert!(head < 1 << 12);
    if payload < 1 << INLINE_BITS {
        out[0] = head | payload << 13;
        1
    } else {
        out[0] = head | 1 << 12;
        out[1..3].copy_from_slice(&halves(payload));
        3
    }
}

fn loc_fields(loc: &Loc) -> (u64, u64) {
    match *loc {
        Loc::Private(l) => (0, l),
        Loc::SharedRo(l) => (1, l),
        Loc::SharedRw(l) => (2, l),
    }
}

fn ord_field(ord: &AccessOrd) -> u64 {
    match ord {
        AccessOrd::Plain => 0,
        AccessOrd::Acquire => 1,
        AccessOrd::Release => 2,
    }
}

/// Write the canonical words of one instruction to `out`; returns how many.
///
/// The first word's low four bits are a nonzero variant tag, and together
/// with its flag bits it determines how many words follow, so the
/// encoding of a stream is prefix-free: distinct streams have distinct
/// word sequences. Common instructions take one word.
#[inline(always)]
fn encode(instr: &Instr, out: &mut [u64; MAX_WORDS]) -> usize {
    let one = |out: &mut [u64; MAX_WORDS], w: u64| {
        out[0] = w;
        1
    };
    match instr {
        Instr::Nop => one(out, 1),
        Instr::MovImm => one(out, 2),
        Instr::Alu => one(out, 3),
        Instr::CmpImm => one(out, 4),
        Instr::CondBranch(Mispredict::Never) => one(out, 5),
        Instr::CondBranch(Mispredict::Workload) => one(out, 5 | 2 << 4),
        Instr::CondBranch(Mispredict::Rate(r)) => {
            out[0] = 5 | 1 << 4;
            out[1..3].copy_from_slice(&halves(r.to_bits()));
            3
        }
        Instr::StackPush => one(out, 6),
        Instr::StackPop => one(out, 7),
        Instr::Load { loc, ord } => {
            let (kind, line) = loc_fields(loc);
            packed(8 | kind << 4 | ord_field(ord) << 6, line, out)
        }
        Instr::Store { loc, ord } => {
            let (kind, line) = loc_fields(loc);
            packed(9 | kind << 4 | ord_field(ord) << 6, line, out)
        }
        Instr::Cas { loc, success_prob } => {
            let (kind, line) = loc_fields(loc);
            let n = packed(10 | kind << 4, line, out);
            out[n..n + 2].copy_from_slice(&halves(success_prob.to_bits()));
            n + 2
        }
        Instr::Fence(k) => one(out, 11 | (*k as u64) << 4),
        Instr::CostLoop { iters, stack_spill } => {
            packed(12 | u64::from(*stack_spill) << 4, *iters, out)
        }
        Instr::Compute { cycles } => one(out, 13 | u64::from(*cycles) << 4),
    }
}

/// Append the canonical words of a byte string: its length, then seven
/// bytes per word.
pub fn encode_bytes(bytes: &[u8], out: &mut Vec<u64>) {
    out.push(bytes.len() as u64);
    for chunk in bytes.chunks(7) {
        out.push(chunk.iter().fold(0, |w, &b| (w << 8) | u64::from(b)));
    }
}

/// Append the canonical words of a full 64-bit value: two 32-bit halves.
pub fn encode_u64(v: u64, out: &mut Vec<u64>) {
    out.extend(halves(v));
}

/// Digest a run of instructions (a thread, a code segment, a lowered
/// site): [`Digest::of_words`] of their canonical words, encoded on the
/// fly into a one-block buffer that folds whenever it fills.
pub(crate) fn instrs_digest(instrs: &[Instr]) -> Digest {
    let (mut h, mut blocks) = ([0; 2], 0);
    // A block, plus room for the longest encoding started at its end.
    let mut buf = [0; BLOCK + MAX_WORDS];
    let mut len = 0;
    for i in instrs {
        let out = (&mut buf[len..len + MAX_WORDS]).try_into();
        len += encode(i, out.expect("len < BLOCK leaves room"));
        if len >= BLOCK {
            block(&mut h, buf[..BLOCK].try_into().expect("a full block"));
            buf.copy_within(BLOCK.., 0);
            len -= BLOCK;
            blocks += 1;
        }
    }
    buf[..len]
        .iter()
        .fold(Digest::after_blocks(h, blocks), |d, &w| d.then_word(w))
}

/// The digest that opens a program stream of `threads` threads.
pub(crate) fn program_head(threads: usize) -> Digest {
    Digest::of_words(&[PROGRAM_TAG, threads as u64])
}

/// The digest of a linked program's canonical stream: a tag, the thread
/// count, then per thread its instruction count and instructions.
pub fn program_digest(program: &Program) -> Digest {
    program
        .threads
        .iter()
        .fold(program_head(program.threads.len()), |d, thread| {
            d.then_word(thread.len() as u64).then(instrs_digest(thread))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::isa::FenceKind;

    fn words(instr: &Instr) -> Vec<u64> {
        let mut out = [0; MAX_WORDS];
        let n = encode(instr, &mut out);
        out[..n].to_vec()
    }

    fn naive(words: &[u64]) -> [u64; 2] {
        let mut h = [0u64; 2];
        for &w in words {
            for l in 0..2 {
                h[l] = ((h[l] as u128 * BASE[l] as u128 + w as u128) % P as u128) as u64;
            }
        }
        h
    }

    #[test]
    fn blocked_horner_matches_the_definition() {
        let words: Vec<u64> = (0..37u64).map(|i| (i * 0x9e37_79b9_7f4a) % P).collect();
        for n in 0..words.len() {
            assert_eq!(
                Digest::of_words(&words[..n]).h,
                naive(&words[..n]),
                "n = {n}"
            );
        }
        assert_eq!(reduce(u128::from(P)), 0);
        for v in [
            u128::from(P) * u128::from(P) * 8 - 1,
            (1 << 125) - 1,
            1 << 122,
            12_345,
        ] {
            assert_eq!(u128::from(reduce(v)), v % u128::from(P), "{v:#x}");
        }
    }

    #[test]
    fn digests_compose_under_concatenation() {
        let words: Vec<u64> = (1..30u64).map(|i| i * i * 7_919).collect();
        let whole = Digest::of_words(&words);
        for cut in 0..=words.len() {
            let (a, b) = words.split_at(cut);
            assert_eq!(Digest::of_words(a).then(Digest::of_words(b)), whole);
        }
        assert_eq!(Digest::EMPTY.then(whole), whole);
        assert_eq!(whole.then(Digest::EMPTY), whole);
    }

    #[test]
    fn encoding_is_prefix_free_and_in_range() {
        let instrs = [
            Instr::Nop,
            Instr::CondBranch(Mispredict::Rate(0.25)),
            Instr::Load {
                loc: Loc::SharedRw(u64::MAX),
                ord: AccessOrd::Acquire,
            },
            Instr::Store {
                loc: Loc::Private(3),
                ord: AccessOrd::Release,
            },
            Instr::Cas {
                loc: Loc::SharedRo(1 << 50),
                success_prob: 0.5,
            },
            Instr::Fence(FenceKind::LwSync),
            Instr::CostLoop {
                iters: 1 << 20,
                stack_spill: true,
            },
            Instr::Compute { cycles: u32::MAX },
        ];
        let mut seen = std::collections::HashSet::new();
        for i in &instrs {
            let w = words(i);
            assert!(w.iter().all(|&x| x < P), "{i:?}");
            assert!(w[0] & 0xf != 0, "{i:?}: zero tag");
            assert!(seen.insert(w), "{i:?} collides");
        }
        // A load and a store of the same location differ.
        let loc = Loc::Private(0);
        let ord = AccessOrd::Plain;
        assert_ne!(
            words(&Instr::Load { loc, ord }),
            words(&Instr::Store { loc, ord })
        );
        // Fused block digests equal the digest of the encoded words, on
        // runs mixing one-word and multi-word instructions.
        for len in 0..3 * instrs.len() {
            let run: Vec<Instr> = (0..len)
                .map(|k| instrs[(k * k + k / 3) % instrs.len()])
                .collect();
            let all: Vec<u64> = run.iter().flat_map(words).collect();
            assert_eq!(instrs_digest(&run), Digest::of_words(&all), "len {len}");
        }
        let ones = vec![Instr::Alu; 21];
        assert_eq!(instrs_digest(&ones), Digest::of_words(&[3; 21]));
    }

    #[test]
    fn program_digest_frames_threads() {
        let one = Program::new(vec![vec![Instr::Nop, Instr::Alu]]);
        let two = Program::new(vec![vec![Instr::Nop], vec![Instr::Alu]]);
        let empty = Program::new(vec![vec![Instr::Nop, Instr::Alu], vec![]]);
        let ds = [&one, &two, &empty].map(program_digest);
        assert_ne!(ds[0], ds[1]);
        assert_ne!(ds[0], ds[2]);
        assert_ne!(ds[1], ds[2]);
    }
}
