//! Per-site stall profiles and profile diffs.

use std::collections::BTreeMap;

use wmm_sim::stats::SiteStall;
use wmm_sim::FenceKind;
use wmmbench::image::SiteNames;
use wmmbench::json::{Json, ToJson};

/// One named site's cycles, split by cause and accumulated over every
/// sited sample that executed it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteProfile {
    /// Fence kind executed at the site, if any.
    pub fence: Option<FenceKind>,
    /// Fence executions.
    pub fences: u64,
    /// Times the site was folded (≈ samples that executed it).
    pub executions: u64,
    /// Cycles stalled in fences.
    pub fence_cycles: f64,
    /// Cycles lost to store-buffer capacity stalls.
    pub sb_stall_cycles: f64,
    /// Exposed memory-access cycles.
    pub mem_cycles: f64,
    /// Total cycles the site advanced its core's clock by.
    pub total_cycles: f64,
}

impl SiteProfile {
    /// Fold one run's stall record into the profile.
    pub(crate) fn add(&mut self, s: &SiteStall) {
        if s.fence.is_some() {
            self.fence = s.fence;
        }
        self.fences += s.fences;
        self.executions += 1;
        self.fence_cycles += s.fence_cycles;
        self.sb_stall_cycles += s.sb_stall_cycles;
        self.mem_cycles += s.mem_cycles;
        self.total_cycles += s.total_cycles;
    }

    /// Cycles not attributed to fences, store-buffer stalls or memory —
    /// the residual compute time (clamped at zero against float noise).
    pub fn compute_cycles(&self) -> f64 {
        (self.total_cycles - self.fence_cycles - self.sb_stall_cycles - self.mem_cycles).max(0.0)
    }
}

/// A campaign-level profile: per-site stall accounts keyed by stable site
/// name. `BTreeMap` keeps iteration (and every export) in deterministic
/// name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-site accounts, by site name.
    pub sites: BTreeMap<String, SiteProfile>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Fold one sited run into the profile. `names` names each `(thread,
    /// index)` site; instructions it cannot name (out of range — should
    /// not happen for names built from the run's image and site table)
    /// fall back to a positional `t{thread}:#{index}` name rather than
    /// being dropped, so cycle totals are conserved.
    ///
    /// Site keys are interned: a key's `String` is allocated only the first
    /// time the site appears in the campaign; every later record (the steady
    /// state — one per executed site instruction per run) folds through a
    /// borrowed-`&str` lookup with no allocation.
    pub fn add_run(&mut self, sites: &[SiteStall], names: &SiteNames) {
        let mut fallback = String::new();
        for s in sites {
            let name: &str = match names.name(s.thread as usize, s.index as usize) {
                Some(n) => n,
                None => {
                    use std::fmt::Write as _;
                    fallback.clear();
                    let _ = write!(fallback, "t{}:#{}", s.thread, s.index);
                    &fallback
                }
            };
            match self.sites.get_mut(name) {
                Some(sp) => sp.add(s),
                None => self.sites.entry(name.to_string()).or_default().add(s),
            }
        }
    }

    /// Sum of fence stall cycles over sites whose fence is `kind` — the
    /// per-site account of the simulator's per-kind totals. Agrees with
    /// `ExecStats::fence_stall_cycles` summed over the same runs to float
    /// reassociation (≈1e-9 relative), not bitwise.
    pub fn fence_stall_cycles(&self, kind: FenceKind) -> f64 {
        self.sites
            .values()
            .filter(|s| s.fence == Some(kind))
            .map(|s| s.fence_cycles)
            .sum()
    }

    /// Total cycles across all sites.
    pub fn total_cycles(&self) -> f64 {
        self.sites.values().map(|s| s.total_cycles).sum()
    }

    /// Site-by-site comparison `test - base`, sorted by absolute total
    /// delta (largest first; ties broken by name for determinism). Sites
    /// present on only one side diff against an implicit zero profile.
    pub fn diff(&self, test: &Profile) -> ProfileDiff {
        let zero = SiteProfile::default();
        let mut names: Vec<&String> = self.sites.keys().chain(test.sites.keys()).collect();
        names.sort();
        names.dedup();
        let mut rows: Vec<SiteDelta> = names
            .into_iter()
            .map(|name| {
                let b = self.sites.get(name).unwrap_or(&zero);
                let t = test.sites.get(name).unwrap_or(&zero);
                SiteDelta {
                    name: name.clone(),
                    base_cycles: b.total_cycles,
                    test_cycles: t.total_cycles,
                    delta_cycles: t.total_cycles - b.total_cycles,
                    fence_delta: t.fence_cycles - b.fence_cycles,
                    sb_delta: t.sb_stall_cycles - b.sb_stall_cycles,
                    mem_delta: t.mem_cycles - b.mem_cycles,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.delta_cycles
                .abs()
                .partial_cmp(&a.delta_cycles.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        ProfileDiff { rows }
    }
}

impl ToJson for SiteProfile {
    fn to_json(&self) -> Json {
        let mut pairs = vec![];
        if let Some(k) = self.fence {
            pairs.push(("fence", k.mnemonic().to_json()));
        }
        pairs.push(("fences", self.fences.to_json()));
        pairs.push(("executions", self.executions.to_json()));
        pairs.push(("fence_cycles", Json::Num(self.fence_cycles)));
        pairs.push(("sb_stall_cycles", Json::Num(self.sb_stall_cycles)));
        pairs.push(("mem_cycles", Json::Num(self.mem_cycles)));
        pairs.push(("compute_cycles", Json::Num(self.compute_cycles())));
        pairs.push(("total_cycles", Json::Num(self.total_cycles)));
        Json::obj(pairs)
    }
}

impl ToJson for Profile {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.sites
                .iter()
                .map(|(name, sp)| {
                    let mut json = sp.to_json();
                    if let Json::Obj(pairs) = &mut json {
                        pairs.insert(0, ("name".to_string(), name.to_json()));
                    }
                    json
                })
                .collect(),
        )
    }
}

/// One site's contribution to a campaign-level delta.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDelta {
    /// Site name.
    pub name: String,
    /// Base total cycles.
    pub base_cycles: f64,
    /// Test total cycles.
    pub test_cycles: f64,
    /// `test - base` total cycles.
    pub delta_cycles: f64,
    /// `test - base` fence stall cycles.
    pub fence_delta: f64,
    /// `test - base` store-buffer stall cycles.
    pub sb_delta: f64,
    /// `test - base` exposed memory cycles.
    pub mem_delta: f64,
}

/// A site-by-site profile comparison, rows sorted by `|delta|` descending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDiff {
    /// Per-site deltas, largest absolute movement first.
    pub rows: Vec<SiteDelta>,
}

impl ProfileDiff {
    /// Signed total delta (test − base), cycles.
    pub fn total_delta(&self) -> f64 {
        self.rows.iter().map(|r| r.delta_cycles).sum()
    }

    /// Sum of absolute per-site deltas, cycles.
    pub fn abs_delta(&self) -> f64 {
        self.rows.iter().map(|r| r.delta_cycles.abs()).sum()
    }

    /// Fraction of the absolute delta attributed to rows matching `pred`
    /// (0 when nothing moved). This is how a strategy change's cost is
    /// attributed: e.g. the share of a JDK8→JDK9 delta carried by
    /// volatile-access sites.
    pub fn share(&self, pred: impl Fn(&SiteDelta) -> bool) -> f64 {
        let total = self.abs_delta();
        if total == 0.0 {
            return 0.0;
        }
        self.rows
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.delta_cycles.abs())
            .sum::<f64>()
            / total
    }

    /// Fraction of the absolute *fence-stall* delta attributed to rows
    /// matching `pred` (0 when no fence cost moved). Where [`share`]
    /// attributes the whole wall delta — including memory-timing ripple a
    /// fencing change causes downstream — this isolates the fence cost the
    /// change moved directly: the right gate when comparing two fencing
    /// schemes over the same images (e.g. classic vs asymmetric hazard
    /// pointers, where the protect sites shed a `dmb` each and the rare
    /// scan picks up a heavy sequence).
    ///
    /// [`share`]: ProfileDiff::share
    pub fn fence_share(&self, pred: impl Fn(&SiteDelta) -> bool) -> f64 {
        let total: f64 = self.rows.iter().map(|r| r.fence_delta.abs()).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.rows
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.fence_delta.abs())
            .sum::<f64>()
            / total
    }

    /// The `n` rows with the largest absolute deltas.
    pub fn top(&self, n: usize) -> &[SiteDelta] {
        &self.rows[..n.min(self.rows.len())]
    }
}

impl ToJson for ProfileDiff {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("name", r.name.to_json()),
                        ("base_cycles", Json::Num(r.base_cycles)),
                        ("test_cycles", Json::Num(r.test_cycles)),
                        ("delta_cycles", Json::Num(r.delta_cycles)),
                        ("fence_delta", Json::Num(r.fence_delta)),
                        ("sb_delta", Json::Num(r.sb_delta)),
                        ("mem_delta", Json::Num(r.mem_delta)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(thread: u32, index: u32, fence: Option<FenceKind>, cycles: f64) -> SiteStall {
        SiteStall {
            thread,
            index,
            fence,
            fences: fence.is_some() as u64,
            fence_cycles: if fence.is_some() { cycles } else { 0.0 },
            sb_stall_cycles: 0.0,
            mem_cycles: 0.0,
            total_cycles: cycles,
        }
    }

    fn named_profile(entries: &[(&str, f64)]) -> Profile {
        let mut p = Profile::new();
        for &(name, cycles) in entries {
            p.sites.entry(name.to_string()).or_default().add(&stall(
                0,
                0,
                Some(FenceKind::DmbIsh),
                cycles,
            ));
        }
        p
    }

    #[test]
    fn fold_accumulates_by_cause_and_exposes_compute() {
        let mut sp = SiteProfile::default();
        sp.add(&SiteStall {
            thread: 0,
            index: 3,
            fence: Some(FenceKind::DmbIsh),
            fences: 1,
            fence_cycles: 12.0,
            sb_stall_cycles: 2.0,
            mem_cycles: 4.0,
            total_cycles: 20.0,
        });
        sp.add(&SiteStall {
            thread: 0,
            index: 3,
            fence: Some(FenceKind::DmbIsh),
            fences: 1,
            fence_cycles: 10.0,
            sb_stall_cycles: 0.0,
            mem_cycles: 1.0,
            total_cycles: 13.0,
        });
        assert_eq!(sp.executions, 2);
        assert_eq!(sp.fences, 2);
        assert_eq!(sp.fence_cycles, 22.0);
        assert_eq!(sp.compute_cycles(), 33.0 - 22.0 - 2.0 - 5.0);
    }

    #[test]
    fn diff_sorts_by_absolute_delta_and_handles_one_sided_sites() {
        let base = named_profile(&[("a", 10.0), ("b", 5.0), ("gone", 2.0)]);
        let test = named_profile(&[("a", 11.0), ("b", 25.0), ("new", 4.0)]);
        let d = base.diff(&test);
        let names: Vec<&str> = d.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["b", "new", "gone", "a"]);
        assert_eq!(d.rows[0].delta_cycles, 20.0);
        assert_eq!(d.rows[1].base_cycles, 0.0);
        assert_eq!(d.rows[2].test_cycles, 0.0);
        assert!((d.total_delta() - (1.0 + 20.0 - 2.0 + 4.0)).abs() < 1e-12);
        assert_eq!(d.abs_delta(), 27.0);
        let b_share = d.share(|r| r.name == "b");
        assert!((b_share - 20.0 / 27.0).abs() < 1e-12);
        assert_eq!(d.top(2).len(), 2);
        assert_eq!(d.top(99).len(), 4);
    }

    #[test]
    fn profile_json_is_name_ordered() {
        let p = named_profile(&[("z", 1.0), ("a", 2.0)]);
        let text = p.to_json().to_string();
        assert!(text.find("\"a\"").unwrap() < text.find("\"z\"").unwrap());
        assert!(text.contains("dmb ish"));
    }
}
