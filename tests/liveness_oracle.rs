//! Liveness oracle over the MiBench suite: `sir::liveness::Liveness`
//! (word-packed rows) gives the same live-in and live-out set for every
//! block as the plain `HashSet` fixpoint, on every function of every
//! pre-backend module a suite sweep lints — each workload's expanded
//! module and its squeezed module under each distinct squeezer
//! configuration of `bench::suite_configs`.

#[path = "../crates/sir/tests/support/liveness_oracle.rs"]
mod liveness_oracle;

use bitspec::pipeline::{TracePolicy, Tracer};
use bitspec::stages;
use mibench::{names, workload, Input};

#[test]
fn liveness_matches_hashset_oracle_on_suite_modules() {
    let mut modules = 0;
    let mut with_regions = 0;
    for name in names() {
        let w = workload(name, Input::Large);
        let mut seen = Vec::new();
        for cfg in bench::suite_configs() {
            let mut tr = Tracer::new(TracePolicy::verify(false));
            let (expanded, pdata, _) =
                stages::profile(&w, &cfg.expander, false, &mut tr).expect("profile");
            for scfg in std::iter::once(None).chain(cfg.squeeze_config().map(Some)) {
                if seen.contains(&(cfg.expander, scfg)) {
                    continue;
                }
                seen.push((cfg.expander, scfg));
                let mut m = (*expanded).clone();
                if let Some(s) = &scfg {
                    opt::squeeze_module(&mut m, &pdata.profile, s);
                }
                for f in &m.funcs {
                    let what = format!("{name} {scfg:?} {}", f.name);
                    liveness_oracle::assert_matches(f, &what);
                    with_regions += usize::from(!f.regions.is_empty());
                }
                modules += 1;
            }
        }
    }
    assert_eq!(
        modules,
        14 * 7,
        "expanded + six squeezer configs per workload"
    );
    assert!(with_regions > 0, "no speculative function was checked");
}
