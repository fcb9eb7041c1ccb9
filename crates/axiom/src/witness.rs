//! Candidate-execution enumeration.
//!
//! A *witness* fixes the communication relations of one candidate
//! execution: for every load, the store it reads from (or the initial
//! state), and for every location, a total coherence order over its
//! stores. The from-read relation is derived (`fr = rf⁻¹ ; co`), so a
//! witness determines every final register and memory value without any
//! machine: the axioms in [`crate::axioms`] then decide whether the
//! candidate is consistent under a model.
//!
//! Enumeration is exhaustive and deterministic: rf choices iterate
//! initial-state first then stores in event order, per load in
//! `(thread, op)` order; coherence orders iterate permutations in
//! lexicographic index order. Candidate counts are the product of
//! `(1 + same-loc stores)` over loads times `k!` per location with `k`
//! stores — litmus-sized tests stay well under a few thousand. Candidates
//! are streamed (`Witnesses`): one witness is edited in place from each
//! candidate to the next, so enumeration allocates nothing per candidate.

use crate::events::EventGraph;

/// One candidate execution's communication choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Witness {
    /// Per load slot (index into [`EventGraph::loads`]): the event id of
    /// the store read, or `None` for the initial state.
    pub rf: Vec<Option<usize>>,
    /// Per location: its stores (event ids) in coherence order.
    pub co: Vec<Vec<usize>>,
}

/// A final state: register files (one vec per thread, indexed by
/// register) and memory (indexed by variable).
pub(crate) type Final = (Vec<Vec<u32>>, Vec<u32>);

impl Witness {
    /// A final state shaped for `g`, every value 0: register files sized
    /// like the explorer's (largest load register + 1 per thread), one word
    /// per variable.
    pub(crate) fn blank_final(g: &EventGraph) -> Final {
        let regs = g.reg_widths.iter().map(|&w| vec![0u32; w]).collect();
        (regs, vec![0u32; g.num_vars])
    }

    /// Overwrite `out` (shaped by [`blank_final`](Self::blank_final)) with
    /// this witness's final state: each load's register holds the value it
    /// read (0 from the initial state), each variable its co-last store's
    /// value (0 if never written).
    pub(crate) fn write_final(&self, g: &EventGraph, out: &mut Final) {
        let (regs, mem) = out;
        for (slot, &load) in g.loads.iter().enumerate() {
            let e = &g.events[load];
            regs[e.thread][e.reg.expect("load has a register")] =
                self.rf[slot].map_or(0, |w| g.events[w].val);
        }
        for (value, order) in mem.iter_mut().zip(&self.co) {
            *value = order.last().map_or(0, |&last| g.events[last].val);
        }
    }
}

/// Lexicographic permutation enumeration over `items` (by index order).
pub(crate) fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = vec![];
    for (i, &head) in items.iter().enumerate() {
        let rest: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &x)| x)
            .collect();
        for mut tail in permutations(&rest) {
            let mut perm = vec![head];
            perm.append(&mut tail);
            out.push(perm);
        }
    }
    out
}

/// Every candidate execution of a graph, one at a time, deterministically:
/// rf choices vary slowest, per load slot in `(thread, op)` order, each
/// initial-state first then stores in event order; coherence orders vary
/// fastest, per location, permutations in lexicographic index order.
///
/// One [`Witness`] is edited in place from candidate to candidate, like an
/// odometer whose digits are the load slots then the locations.
pub(crate) struct Witnesses {
    /// rf choices per load slot.
    rf_choices: Vec<Vec<Option<usize>>>,
    /// Coherence orders per location.
    co_choices: Vec<Vec<Vec<usize>>>,
    /// The current choice per digit: load slots, then locations.
    digits: Vec<usize>,
    current: Witness,
    /// Has [`next`](Self::next) handed out the first candidate?
    started: bool,
}

impl Witnesses {
    /// The candidates of `g`, before the first.
    pub(crate) fn new(g: &EventGraph) -> Self {
        let rf_choices: Vec<Vec<Option<usize>>> = g
            .loads
            .iter()
            .map(|&l| {
                std::iter::once(None)
                    .chain(g.co_group(l).iter().map(|&w| Some(w)))
                    .collect()
            })
            .collect();
        let co_choices: Vec<Vec<Vec<usize>>> = g
            .stores_by_loc
            .iter()
            .map(|stores| permutations(stores))
            .collect();
        let current = Witness {
            rf: rf_choices.iter().map(|c| c[0]).collect(),
            co: co_choices.iter().map(|c| c[0].clone()).collect(),
        };
        Witnesses {
            digits: vec![0; rf_choices.len() + co_choices.len()],
            rf_choices,
            co_choices,
            current,
            started: false,
        }
    }

    /// The next candidate, or `None` after the last.
    pub(crate) fn next(&mut self) -> Option<&Witness> {
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        let loads = self.rf_choices.len();
        for d in (0..self.digits.len()).rev() {
            let choices = if d < loads {
                self.rf_choices[d].len()
            } else {
                self.co_choices[d - loads].len()
            };
            let digit = (self.digits[d] + 1) % choices;
            self.digits[d] = digit;
            if d < loads {
                self.current.rf[d] = self.rf_choices[d][digit];
            } else {
                self.current.co[d - loads].clone_from(&self.co_choices[d - loads][digit]);
            }
            if digit != 0 {
                return Some(&self.current);
            }
        }
        // Every digit wrapped: the enumeration is over.
        self.digits.clear();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::suite;

    /// Every candidate of `g`, in enumeration order.
    pub(crate) fn all(g: &EventGraph) -> Vec<Witness> {
        let mut witnesses = Witnesses::new(g);
        let mut out = vec![];
        while let Some(w) = witnesses.next() {
            out.push(w.clone());
        }
        out
    }

    #[test]
    fn witness_count_is_the_product_of_choices() {
        // SB: 2 loads × (1 init + 1 store each) = 4 rf choices; one store
        // per location so co is trivial.
        let sb = suite::store_buffering().test;
        let g = EventGraph::new(&sb);
        assert_eq!(all(&g).len(), 4);

        // 2+2W: no loads, two stores on each of two locations = 2! × 2!.
        let w22 = suite::two_plus_two_w().test;
        let g = EventGraph::new(&w22);
        assert_eq!(all(&g).len(), 4);
    }

    #[test]
    fn enumeration_is_deterministic() {
        let t = suite::message_passing().test;
        let g = EventGraph::new(&t);
        assert_eq!(all(&g), all(&g));
    }
}
