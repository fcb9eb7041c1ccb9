//! Kernel service code paths: segment generators with macro sites.
//!
//! Each service models one kernel subsystem's hot path as application-level
//! instruction segments plus memory-model macro sites at densities chosen to
//! reproduce the paper's rankings: `smp_mb`, `read_once` and
//! `read_barrier_depends` are the most frequently executed macros across the
//! benchmark set (Fig. 7), the network stack is saturated with them
//! (netperf's top sensitivity in Figs. 8 and 9), and the mandatory device
//! barriers (`mb`/`rmb`/`wmb`) are rare. The `wmm-workloads` crate composes
//! these services into whole benchmarks.

use wmm_sim::isa::{AccessOrd, Instr, Loc};
use wmm_sim::SplitMix64;
use wmmbench::image::Segment;

use crate::macros::KMacro;

/// A kernel subsystem hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// System-call entry/exit: fd-table lookups under RCU.
    Syscall,
    /// An RCU read-side critical section (route/dentry lookup).
    RcuRead,
    /// Network transmit over loopback: ring-buffer publish + doorbell.
    NetTx,
    /// Network receive: descriptor consume + socket wakeup.
    NetRx,
    /// Page allocation / memory management (ebizzy's stress target).
    PageAlloc,
    /// Scheduler wakeup (pipes, semaphores, condvars).
    SchedWakeup,
    /// VFS read path (page-cache hit).
    VfsRead,
    /// Device I/O with mandatory barriers (block layer).
    DeviceIo,
}

/// Shared kernel data-structure lines.
mod lines {
    pub(crate) const FDTABLE: u64 = 0xFD00;
    pub(crate) const ROUTE: u64 = 0x2070;
    pub(crate) const RING: u64 = 0x21A6;
    pub(crate) const SOCK: u64 = 0x50CC;
    pub(crate) const ZONE: u64 = 0x20AE;
    pub(crate) const RUNQ: u64 = 0x2109;
    pub(crate) const PAGECACHE: u64 = 0x9A6E;
}

impl Service {
    /// Append this service's hot path to `out`. `rng` varies line selection
    /// and path lengths so repeated invocations are not identical.
    // One arm per service; each arm is a barrier-usage vignette and reads
    // as a unit.
    #[allow(clippy::too_many_lines)]
    pub fn emit(&self, out: &mut Vec<Segment<KMacro>>, rng: &mut SplitMix64) {
        use KMacro::{
            Mb, ReadBarrierDepends, ReadOnce, Rmb, SmpLoadAcquire, SmpMb, SmpMbAfterAtomic,
            SmpMbBeforeAtomic, SmpRmb, SmpStoreMb, SmpStoreRelease, SmpWmb, Wmb, WriteOnce,
        };
        let code = |v: Vec<Instr>| Segment::Code(v);
        let site = |m: KMacro| Segment::Site(m);
        let ld = |l: u64| Instr::Load {
            loc: Loc::SharedRw(l),
            ord: AccessOrd::Plain,
        };
        let st = |l: u64| Instr::Store {
            loc: Loc::SharedRw(l),
            ord: AccessOrd::Plain,
        };
        let work = |c: u32| Instr::Compute { cycles: c };

        match self {
            Service::Syscall => {
                let fd = lines::FDTABLE + rng.next_below(16);
                out.push(code(vec![work(30)])); // entry, save regs
                out.push(site(ReadOnce)); // READ_ONCE(current->files)
                out.push(code(vec![ld(fd)]));
                out.push(site(ReadBarrierDepends)); // rcu_dereference(fdt)
                out.push(code(vec![ld(fd + 64)]));
                out.push(code(vec![work(40), ld(fd + 128)]));
                out.push(site(SmpMb)); // exit work / signal check
                out.push(code(vec![work(25)]));
            }
            Service::RcuRead => {
                let r = lines::ROUTE + rng.next_below(8);
                out.push(site(ReadOnce));
                out.push(code(vec![ld(r)]));
                out.push(site(ReadBarrierDepends)); // rcu_dereference chain
                out.push(code(vec![ld(r + 1), work(15)]));
                out.push(site(ReadBarrierDepends));
                out.push(code(vec![ld(r + 2)]));
            }
            Service::NetTx => {
                let ring_line = lines::RING + rng.next_below(4);
                out.push(code(vec![work(60)])); // skb build
                out.push(site(WriteOnce)); // descriptor fill
                out.push(code(vec![st(ring_line)]));
                out.push(site(SmpWmb)); // publish before index update
                out.push(site(WriteOnce));
                out.push(code(vec![st(ring_line + 1)]));
                out.push(site(SmpMb)); // doorbell / peer wakeup
                out.push(code(vec![work(20)]));
            }
            Service::NetRx => {
                let ring_line = lines::RING + rng.next_below(4);
                out.push(site(ReadOnce)); // index poll
                out.push(code(vec![ld(ring_line + 1)]));
                out.push(site(SmpRmb)); // index before descriptor
                out.push(site(ReadBarrierDepends)); // descriptor deref
                out.push(code(vec![ld(ring_line), work(50)]));
                out.push(site(ReadBarrierDepends)); // skb data deref
                out.push(code(vec![ld(lines::SOCK)]));
                out.push(site(SmpMb)); // socket state / wakeup
                out.push(code(vec![work(30)]));
            }
            Service::PageAlloc => {
                let zone = lines::ZONE + rng.next_below(4);
                out.push(site(SmpMbBeforeAtomic));
                out.push(code(vec![Instr::Cas {
                    loc: Loc::SharedRw(zone),
                    success_prob: 0.9,
                }]));
                out.push(site(SmpMbAfterAtomic));
                out.push(site(WriteOnce)); // page-table update
                out.push(code(vec![st(zone + 8), work(45)]));
                out.push(site(SmpStoreRelease)); // page ready
                out.push(code(vec![st(zone + 9)]));
                out.push(site(SmpMb)); // zone watermark / kswapd wakeup
                out.push(code(vec![work(10)]));
            }
            Service::SchedWakeup => {
                let rq = lines::RUNQ + rng.next_below(4);
                out.push(site(SmpMb)); // wake-queue ordering
                out.push(site(ReadOnce)); // task state
                out.push(code(vec![ld(rq)]));
                out.push(site(SmpLoadAcquire));
                out.push(code(vec![
                    Instr::Cas {
                        loc: Loc::SharedRw(rq + 1),
                        success_prob: 0.92,
                    },
                    work(35),
                ]));
                out.push(site(SmpMb)); // ttwu pairing
                out.push(site(SmpStoreRelease));
                out.push(code(vec![st(rq + 2)]));
            }
            Service::VfsRead => {
                let pc = lines::PAGECACHE + rng.next_below(32);
                out.push(site(ReadOnce));
                out.push(code(vec![ld(pc)]));
                out.push(site(ReadBarrierDepends)); // radix-tree deref
                out.push(code(vec![ld(pc + 1), work(55)]));
                out.push(site(SmpLoadAcquire)); // PageUptodate
                out.push(code(vec![work(25)]));
            }
            Service::DeviceIo => {
                out.push(code(vec![work(120)]));
                out.push(site(Wmb)); // descriptor to device
                out.push(code(vec![st(lines::RING + 16)]));
                out.push(site(Mb)); // doorbell
                out.push(code(vec![work(80)]));
                out.push(site(Rmb)); // completion read
                out.push(code(vec![ld(lines::RING + 17)]));
                out.push(site(SmpStoreMb));
                out.push(code(vec![st(lines::RING + 18)]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites_of(s: Service) -> Vec<KMacro> {
        let mut out = vec![];
        let mut rng = SplitMix64::new(1);
        s.emit(&mut out, &mut rng);
        out.iter()
            .filter_map(|seg| match seg {
                Segment::Site(m) => Some(*m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn syscall_path_uses_rcu_macros() {
        let sites = sites_of(Service::Syscall);
        assert!(sites.contains(&KMacro::ReadOnce));
        assert!(sites.contains(&KMacro::ReadBarrierDepends));
        assert!(sites.contains(&KMacro::SmpMb));
    }

    #[test]
    fn net_paths_are_macro_dense() {
        // The network stack must be the most macro-dense service pair —
        // netperf tops the sensitivity rankings (Figs. 8, 9).
        let tx = sites_of(Service::NetTx).len();
        let rx = sites_of(Service::NetRx).len();
        assert!(tx + rx >= 9, "tx={tx} rx={rx}");
        assert!(
            sites_of(Service::NetRx)
                .iter()
                .filter(|m| **m == KMacro::ReadBarrierDepends)
                .count()
                >= 2
        );
    }

    #[test]
    fn device_io_is_the_only_mandatory_barrier_user() {
        for s in [
            Service::Syscall,
            Service::RcuRead,
            Service::NetTx,
            Service::NetRx,
            Service::PageAlloc,
            Service::SchedWakeup,
            Service::VfsRead,
        ] {
            let sites = sites_of(s);
            assert!(
                !sites
                    .iter()
                    .any(|m| matches!(m, KMacro::Mb | KMacro::Rmb | KMacro::Wmb)),
                "{s:?} should not use mandatory barriers"
            );
        }
        let dev = sites_of(Service::DeviceIo);
        assert!(dev.contains(&KMacro::Mb));
        assert!(dev.contains(&KMacro::Rmb));
        assert!(dev.contains(&KMacro::Wmb));
    }

    #[test]
    fn emission_is_seed_deterministic() {
        let mut a = vec![];
        let mut b = vec![];
        Service::NetTx.emit(&mut a, &mut SplitMix64::new(5));
        Service::NetTx.emit(&mut b, &mut SplitMix64::new(5));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn all_fourteen_macros_are_reachable() {
        let mut seen = std::collections::HashSet::new();
        for s in [
            Service::Syscall,
            Service::RcuRead,
            Service::NetTx,
            Service::NetRx,
            Service::PageAlloc,
            Service::SchedWakeup,
            Service::VfsRead,
            Service::DeviceIo,
        ] {
            seen.extend(sites_of(s));
        }
        for m in KMacro::ALL {
            assert!(seen.contains(&m), "{m:?} unused by any service");
        }
    }
}
