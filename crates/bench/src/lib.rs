//! # wmm-bench
//!
//! Experiment drivers regenerating every table and figure of
//! *Benchmarking Weak Memory Models*. Each artefact is one entry of the
//! `campaigns::REGISTRY`, run by the `wmm` binary
//! (`wmm run <name>`): it prints a paper-vs-measured artefact, writes CSV
//! into `results/` and a run manifest into `results/runs/`, which
//! `wmm gate <name>` compares with `results/baselines/`. The science lives
//! in the modules here so integration tests can assert the shapes without
//! shelling out.
//!
//! | Artefact | Function | Registry name |
//! |---|---|---|
//! | Fig. 1 | `experiments::fig1_example_fit` | `fig1_fit` |
//! | Fig. 4 | `experiments::fig4_costfn_calibration` | `fig4_costfn` |
//! | Fig. 5 | [`experiments::fig5_openjdk_sweeps_with`] | `fig5_openjdk_sweep` |
//! | Fig. 6 | [`experiments::fig6_spark_elementals`] | `fig6_spark_barriers` |
//! | §4.2.1 tables | [`experiments::storestore_experiment`] and friends | `table_jvm_strategies` |
//! | Figs. 7 and 8 | [`experiments::linux_ranking_with`] | `fig7_macro_ranking` |
//! | Fig. 9 | [`experiments::fig9_rbd_sweeps_with`] | `fig9_rbd_sensitivity` |
//! | Fig. 10 | [`experiments::fig10_rbd_strategies`] | `fig10_rbd_strategies` |
//! | §4.3 nop padding | [`experiments::kernel_nop_overhead`] | `table_kernel_nop` |
//! | §4.3.1 cost table | [`experiments::rbd_cost_estimates`] | `table_rbd_costs` |
//! | §5 SC strategy | [`experiments::sc_strategy_experiment`] | `table_sc_strategy` |
//! | litmus matrix | `wmm_litmus::suite::run_full_suite` | `litmus_matrix` |
//! | JIT optimisation sites | `wmm_jvm::optsites` sweeps | `ext_jit_optsites` |
//! | turnkey evaluation | `wmmbench::turnkey::evaluate_with` | `turnkey_netperf_udp` |
//! | reclamation schemes | [`experiments::fig_dstruct_manifest_with`] | `fig_dstruct` |
//! | fence-cost attribution | `experiments::fig5_arm_fence_attribution` | `fence_attribution` |
//! | fence audit | `wmm_analyze::analyze` + Eq. 1 pricing | `fence_lint` |
//! | fence synthesis | `wmm_analyze::synthesize` + dual validation | `fence_synth` |
//! | whole-program synthesis | `wmm_analyze::synthesize_wps` + [`wps`] | `fence_synth_wps` |
//! | dual-oracle differential | `wmm_axiom` vs `wmm_litmus::explore` | `axiom_diff` |
//! | per-site profiles and run reports | `profiling::profile_campaign` + `report::markdown` | `wmm_profile-<id>` |
//! | cross-JIT site diff | [`profiling`] + `wmm_obs::Profile::diff` | `wmm_tracediff` |
//! | reclamation site diff | [`profiling`] + `wmm_obs::Profile::diff` | `wmm_tracediff-dstruct` |
//!
//! The [`streams`] module is the shared stream-ingestion path for the
//! static checkers. Every `fence_lint` platform row goes through
//! `streams::audit_streams`, and every `fence_synth` placement through
//! `streams::synth_validated` (platform rows via
//! `streams::synth_stream_case`). A platform contributes only its idiom
//! builders, a re-lowering hook and its hand strategies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod campaigns;
pub mod cli;
pub mod experiments;
pub mod profiling;
pub mod report;
pub mod streams;
pub mod wps;

pub use experiments::*;
