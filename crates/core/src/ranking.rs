//! Rankings from a fixed-size cost function across a (code path × benchmark)
//! matrix — the method behind Figs. 7 and 8.
//!
//! §4.3.1: "Expecting generally lower sensitivity to kernel behaviour, we
//! inject a large cost function (1024 loop iterations) into each macro in
//! turn, and measure the relative performance impact on all benchmarks. …
//! Assuming all macros and benchmarks are equal we aggregate either by
//! benchmark or macro to produce rankings of interest."

use std::collections::HashMap;
use std::hash::Hash;

use wmm_sim::Machine;
use wmm_stats::Comparison;

use crate::costfn::CostFunction;
use crate::exec::{wall_times, Executor};
use crate::image::{Injection, SiteRewriter};
use crate::runner::{sample_images, Batch, BenchSpec, RunConfig, SampleCode};
use crate::strategy::FencingStrategy;

/// The full measurement matrix of a ranking experiment.
#[derive(Debug, Clone)]
pub struct RankingMatrix<P> {
    /// Code paths probed (rows).
    pub paths: Vec<P>,
    /// Benchmark names (columns).
    pub benchmarks: Vec<String>,
    /// `rel_perf[path][bench]`: relative performance (≤ 1 when the injected
    /// cost hurts) of each benchmark with the cost function in each path.
    pub rel_perf: Vec<Vec<f64>>,
}

impl<P: Clone> RankingMatrix<P> {
    /// Fig. 7: aggregate across benchmarks for each code path; the *lower*
    /// the sum of relative performance, the bigger the macro's impact.
    /// Returned ascending (biggest impact first).
    pub fn by_path_impact(&self) -> Vec<(P, f64)> {
        let mut rows: Vec<(P, f64)> = self
            .paths
            .iter()
            .cloned()
            .zip(self.rel_perf.iter().map(|r| r.iter().sum::<f64>()))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite sums"));
        rows
    }

    /// Fig. 8: aggregate across code paths for each benchmark; the lower the
    /// sum, the more sensitive the benchmark is to this platform's fencing
    /// strategy overall. Returned ascending (most sensitive first).
    pub fn by_benchmark_sensitivity(&self) -> Vec<(String, f64)> {
        let ncols = self.benchmarks.len();
        let mut cols: Vec<(String, f64)> = (0..ncols)
            .map(|c| {
                let sum = self.rel_perf.iter().map(|row| row[c]).sum::<f64>();
                (self.benchmarks[c].clone(), sum)
            })
            .collect();
        cols.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite sums"));
        cols
    }

    /// Number of data points (the paper's "our initial investigation
    /// produces 154 data points" for 14 macros × 11 benchmarks).
    pub fn data_points(&self) -> usize {
        self.rel_perf.iter().map(Vec::len).sum()
    }
}

/// Build the ranking matrix: inject a fixed cost function into each code
/// path in turn and measure every benchmark's relative performance.
///
/// The per-benchmark base cases and every `(path × benchmark)` cell are
/// submitted to `exec` as one batch of independent simulations, so a
/// parallel executor can drain the whole matrix concurrently.
#[allow(clippy::too_many_arguments)]
pub fn ranking_matrix_with<P: Clone + Eq + Hash>(
    machine: &Machine,
    benches: &[&dyn BenchSpec<P>],
    strategy: &dyn FencingStrategy<P>,
    paths: &[P],
    cost: CostFunction,
    envelope: HashMap<P, u64>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> RankingMatrix<P> {
    // Base case per benchmark (nop-padded), then every (path, bench) cell.
    // Each benchmark's images are generated and indexed once for all its
    // rewriters.
    let images: Vec<_> = benches.iter().map(|b| sample_images(*b, cfg)).collect();
    let code: Vec<_> = images.iter().map(|i| SampleCode::new(i)).collect();
    let injections = paths.iter().map(|p| Injection::At(p.clone(), cost));
    let rewriters: Vec<_> = std::iter::once(Injection::None)
        .chain(injections)
        .map(|injection| SiteRewriter::new(strategy, injection, envelope.clone()))
        .collect();
    let configs = rewriters
        .iter()
        .flat_map(|rw| code.iter().map(move |c| (c, rw)));
    let times: Vec<_> = Batch::new(machine, cfg, configs)
        .run(exec)
        .into_iter()
        .map(wall_times)
        .collect();
    let n = benches.len();
    let rel_perf = (1..=paths.len())
        .map(|row| {
            (0..n)
                .map(|b| Comparison::of_times(&times[row * n + b], &times[b]).ratio)
                .collect()
        })
        .collect();
    RankingMatrix {
        paths: paths.to_vec(),
        benchmarks: benches.iter().map(|b| b.name().to_string()).collect(),
        rel_perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SerialExecutor;
    use crate::image::{compute_envelope, Image, Segment};
    use crate::strategy::FnStrategy;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::WorkloadCtx;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum P {
        Hot,
        Rare,
    }

    /// Benchmark touching `Hot` often and `Rare` once.
    struct Skewed;
    impl BenchSpec<P> for Skewed {
        fn name(&self) -> &str {
            "skewed"
        }
        fn image(&self, _seed: u64) -> Image<P> {
            let mut segs = vec![Segment::Site(P::Rare)];
            for _ in 0..50 {
                segs.push(Segment::Code(vec![Instr::Compute { cycles: 300 }]));
                segs.push(Segment::Site(P::Hot));
            }
            Image {
                threads: vec![segs],
                ctx: WorkloadCtx::default(),
                work_units: 1.0,
            }
        }
    }

    /// Benchmark with no sites at all — fully insensitive.
    struct NoSites;
    impl BenchSpec<P> for NoSites {
        fn name(&self) -> &str {
            "nosites"
        }
        fn image(&self, _seed: u64) -> Image<P> {
            Image {
                threads: vec![vec![Segment::Code(vec![Instr::Compute { cycles: 20_000 }])]],
                ctx: WorkloadCtx::default(),
                work_units: 1.0,
            }
        }
    }

    #[test]
    fn ranking_orders_paths_and_benchmarks() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &P| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let cf = CostFunction {
            iters: 1024,
            stack_spill: true,
        };
        let env = compute_envelope(&[P::Hot, P::Rare], &[&strategy], cf.size());
        let skewed = Skewed;
        let nosites = NoSites;
        let benches: Vec<&dyn BenchSpec<P>> = vec![&skewed, &nosites];
        let m = ranking_matrix_with(
            &machine,
            &benches,
            &strategy,
            &[P::Hot, P::Rare],
            cf,
            env,
            RunConfig::quick(),
            &SerialExecutor,
        );
        assert_eq!(m.data_points(), 4);

        let by_path = m.by_path_impact();
        assert_eq!(
            by_path[0].0,
            P::Hot,
            "hot path must rank first: {by_path:?}"
        );
        assert!(by_path[0].1 < by_path[1].1);

        let by_bench = m.by_benchmark_sensitivity();
        assert_eq!(by_bench[0].0, "skewed");
        // The no-site benchmark shows ~zero sensitivity: sums to ~#paths.
        assert!((by_bench[1].1 - 2.0).abs() < 0.05, "{by_bench:?}");
    }
}
