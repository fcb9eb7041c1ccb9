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
//! stores — litmus-sized tests stay well under a few thousand.

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

impl Witness {
    /// The final value of each variable: the co-last store's value, 0 for
    /// never-written variables.
    #[must_use]
    pub(crate) fn final_memory(&self, g: &EventGraph) -> Vec<u32> {
        let mut mem = vec![0u32; g.num_vars];
        for (loc, order) in self.co.iter().enumerate() {
            if let Some(&last) = order.last() {
                mem[loc] = g.events[last].val;
            }
        }
        mem
    }

    /// The final register files, mirroring the explorer's layout: one vec
    /// per thread sized to the largest load register, loads from the
    /// initial state read 0.
    #[must_use]
    pub(crate) fn final_registers(&self, g: &EventGraph) -> Vec<Vec<u32>> {
        let mut regs: Vec<Vec<u32>> = g.reg_widths.iter().map(|&w| vec![0u32; w]).collect();
        for (slot, &load) in g.loads.iter().enumerate() {
            let e = &g.events[load];
            let val = self.rf[slot].map_or(0, |w| g.events[w].val);
            regs[e.thread][e.reg.expect("load has a register")] = val;
        }
        regs
    }
}

/// Lexicographic permutation enumeration over `items` (by index order).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
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

/// Enumerate every candidate execution of `g`, deterministically.
#[must_use]
pub(crate) fn witnesses(g: &EventGraph) -> Vec<Witness> {
    // rf choices per load slot: init first, then same-loc stores in event
    // order.
    let rf_choices: Vec<Vec<Option<usize>>> = g
        .loads
        .iter()
        .map(|&l| {
            let mut c: Vec<Option<usize>> = vec![None];
            c.extend(g.co_group(l).iter().map(|&w| Some(w)));
            c
        })
        .collect();
    // co orders per location.
    let co_choices: Vec<Vec<Vec<usize>>> = g
        .stores_by_loc
        .iter()
        .map(|stores| permutations(stores))
        .collect();

    let mut out = vec![];
    let mut rf = vec![None; g.loads.len()];
    let mut co: Vec<Vec<usize>> = vec![vec![]; g.num_vars];
    enumerate_rf(&rf_choices, 0, &mut rf, &co_choices, &mut co, &mut out);
    out
}

fn enumerate_rf(
    rf_choices: &[Vec<Option<usize>>],
    slot: usize,
    rf: &mut Vec<Option<usize>>,
    co_choices: &[Vec<Vec<usize>>],
    co: &mut Vec<Vec<usize>>,
    out: &mut Vec<Witness>,
) {
    if slot == rf_choices.len() {
        enumerate_co(co_choices, 0, rf, co, out);
        return;
    }
    for &choice in &rf_choices[slot] {
        rf[slot] = choice;
        enumerate_rf(rf_choices, slot + 1, rf, co_choices, co, out);
    }
}

fn enumerate_co(
    co_choices: &[Vec<Vec<usize>>],
    loc: usize,
    rf: &[Option<usize>],
    co: &mut Vec<Vec<usize>>,
    out: &mut Vec<Witness>,
) {
    if loc == co_choices.len() {
        out.push(Witness {
            rf: rf.to_vec(),
            co: co.clone(),
        });
        return;
    }
    for order in &co_choices[loc] {
        co[loc].clone_from(order);
        enumerate_co(co_choices, loc + 1, rf, co, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::suite;

    #[test]
    fn witness_count_is_the_product_of_choices() {
        // SB: 2 loads × (1 init + 1 store each) = 4 rf choices; one store
        // per location so co is trivial.
        let sb = suite::store_buffering().test;
        let g = EventGraph::new(&sb);
        assert_eq!(witnesses(&g).len(), 4);

        // 2+2W: no loads, two stores on each of two locations = 2! × 2!.
        let w22 = suite::two_plus_two_w().test;
        let g = EventGraph::new(&w22);
        assert_eq!(witnesses(&g).len(), 4);
    }

    #[test]
    fn enumeration_is_deterministic() {
        let t = suite::message_passing().test;
        let g = EventGraph::new(&t);
        assert_eq!(witnesses(&g), witnesses(&g));
    }
}
