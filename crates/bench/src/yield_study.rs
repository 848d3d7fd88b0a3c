//! Monte-Carlo yield analysis of COMPACT designs under manufacturing
//! defects, before and after the `flowc-compact` repair ladder.
//!
//! For each defect density the campaign draws seeded defect maps over the
//! physical array (design footprint plus optional spare lines), checks
//! whether the unrepaired identity placement still computes the reference
//! function (*pre-repair yield*), then runs the repair ladder and checks
//! again (*post-repair yield*). Everything is driven by one explicit
//! seed, so a campaign is reproducible bit-for-bit — CI asserts on it.

use std::time::Duration;

use flowc_budget::Budget;
use flowc_compact::{
    repair_placement, repair_with_resynthesis_in, Config, RepairConfig, RepairStrategy, Session,
};
use flowc_logic::Network;
use flowc_xbar::fault::{apply_defects, inject, DefectRates};
use flowc_xbar::rng::XorShift64;
use flowc_xbar::verify::verify_functional;
use flowc_xbar::Crossbar;

use crate::report::Json;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Defect maps drawn per density point.
    pub trials: usize,
    /// Master seed; every trial's injection seed derives from it.
    pub seed: u64,
    /// Spare wordlines beyond the design footprint.
    pub spare_rows: usize,
    /// Spare bitlines beyond the design footprint.
    pub spare_cols: usize,
    /// Input assignments checked per functional verification.
    pub verify_samples: usize,
    /// Wall-clock budget for the resynthesis rung; `ZERO` disables
    /// resynthesis (the ladder stops at spares).
    pub resynthesis_budget: Duration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 20,
            seed: 0xC0FF_EE00_D15E_A5E5,
            spare_rows: 1,
            spare_cols: 1,
            verify_samples: 128,
            resynthesis_budget: Duration::ZERO,
        }
    }
}

/// Yield at one defect density.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldPoint {
    /// Per-cell defect probability fed to the injector.
    pub defect_rate: f64,
    /// Defect maps drawn.
    pub trials: usize,
    /// Trials where the *unrepaired* placement already computes the
    /// function (all defects benign).
    pub pre_repair_ok: usize,
    /// Trials functional after the repair ladder (includes `pre_repair_ok`).
    pub post_repair_ok: usize,
    /// Repairs that needed only a row/column permutation.
    pub by_permutation: usize,
    /// Repairs that needed spare lines.
    pub by_spares: usize,
    /// Repairs that needed budget-bounded resynthesis.
    pub by_resynthesis: usize,
    /// Trials no rung of the ladder could repair.
    pub irreparable: usize,
}

impl YieldPoint {
    /// Fraction of trials functional without repair.
    pub fn pre_yield(&self) -> f64 {
        fraction(self.pre_repair_ok, self.trials)
    }

    /// Fraction of trials functional after repair.
    pub fn post_yield(&self) -> f64 {
        fraction(self.post_repair_ok, self.trials)
    }
}

fn fraction(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the campaign: for each density in `rates`, draws
/// `cfg.trials` defect maps and measures pre- and post-repair yield of
/// `design` against the reference `network`.
///
/// `synth_config` seeds the resynthesis rung (it is perturbed, not reused
/// verbatim); it is ignored when `cfg.resynthesis_budget` is zero.
pub fn run_campaign(
    network: &Network,
    design: &Crossbar,
    synth_config: &Config,
    rates: &[f64],
    cfg: &CampaignConfig,
) -> Vec<YieldPoint> {
    let phys_rows = design.rows() + cfg.spare_rows;
    let phys_cols = design.cols() + cfg.spare_cols;
    let identity_rows: Vec<usize> = (0..design.rows()).collect();
    let identity_cols: Vec<usize> = (0..design.cols()).collect();
    let placed = design
        .place(&identity_rows, &identity_cols, phys_rows, phys_cols)
        .expect("identity placement into the physical array is always valid");
    let repair_cfg = RepairConfig {
        verify_samples: cfg.verify_samples,
        ..RepairConfig::default()
    };
    // One session for the whole campaign: every resynthesis trial perturbs
    // the same network, so the candidate BDDs and graphs are built once and
    // served from the cache for the remaining trials. Each trial still gets
    // its own wall-clock deadline below.
    let session = Session::default();
    let mut seed_stream = XorShift64::new(cfg.seed);
    rates
        .iter()
        .map(|&rate| {
            let mut point = YieldPoint {
                defect_rate: rate,
                trials: cfg.trials,
                pre_repair_ok: 0,
                post_repair_ok: 0,
                by_permutation: 0,
                by_spares: 0,
                by_resynthesis: 0,
                irreparable: 0,
            };
            for _ in 0..cfg.trials {
                let trial_seed = seed_stream.next_u64();
                let map = inject(
                    phys_rows,
                    phys_cols,
                    &DefectRates::uniform(rate),
                    trial_seed,
                );
                let pre_ok = apply_defects(&placed, &map)
                    .and_then(|x| verify_functional(&x, network, cfg.verify_samples))
                    .map(|r| r.is_valid())
                    .unwrap_or(false);
                if pre_ok {
                    point.pre_repair_ok += 1;
                }
                let outcome = if cfg.resynthesis_budget.is_zero() {
                    repair_placement(network, design, &map, &repair_cfg)
                } else {
                    let budget = Budget::unlimited().with_deadline(cfg.resynthesis_budget);
                    repair_with_resynthesis_in(
                        &session,
                        network,
                        synth_config,
                        design,
                        &map,
                        &repair_cfg,
                        &budget,
                    )
                };
                match outcome {
                    Ok(repaired) => {
                        point.post_repair_ok += 1;
                        match repaired.report.strategy {
                            RepairStrategy::Benign => {}
                            RepairStrategy::Permutation => point.by_permutation += 1,
                            RepairStrategy::Spares => point.by_spares += 1,
                            RepairStrategy::Resynthesis => point.by_resynthesis += 1,
                        }
                    }
                    Err(_) => point.irreparable += 1,
                }
            }
            point
        })
        .collect()
}

/// Synthesizes a campaign-ready design through a [`Backend`].
///
/// The repair ladder permutes, re-places, and re-synthesizes one
/// monolithic crossbar, so only backends advertising
/// [`Capabilities::repairable`](flowc_baselines::Capabilities) can feed a
/// campaign; anything else (a tile schedule, a MAGIC NOR program) is
/// rejected up front with the reason, instead of failing a thousand
/// trials in.
pub fn campaign_design(
    network: &Network,
    backend: &flowc_baselines::Backend,
    budget: &Budget,
) -> Result<Crossbar, String> {
    use flowc_baselines::{MappingBackend, SynthesisCtx};
    if !backend.capabilities().repairable {
        return Err(format!(
            "backend `{}` does not support defect repair (needs a repairable monolithic crossbar)",
            backend.name()
        ));
    }
    let ctx = SynthesisCtx::default().with_budget(budget.clone());
    let design = backend
        .synthesize(network, &ctx)
        .map_err(|e| e.to_string())?;
    design.into_crossbar().ok_or_else(|| {
        format!(
            "backend `{}` produced no monolithic crossbar",
            backend.name()
        )
    })
}

/// Serializes a campaign into the `results/` JSON artifact schema.
pub fn campaign_json(
    benchmark: &str,
    design: &Crossbar,
    cfg: &CampaignConfig,
    points: &[YieldPoint],
) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("design_rows".into(), Json::int(design.rows())),
        ("design_cols".into(), Json::int(design.cols())),
        ("spare_rows".into(), Json::int(cfg.spare_rows)),
        ("spare_cols".into(), Json::int(cfg.spare_cols)),
        ("trials".into(), Json::int(cfg.trials)),
        ("seed".into(), Json::str(format!("{:#018x}", cfg.seed))),
        ("verify_samples".into(), Json::int(cfg.verify_samples)),
        (
            "resynthesis_budget_secs".into(),
            Json::Num(cfg.resynthesis_budget.as_secs_f64()),
        ),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("defect_rate".into(), Json::Num(p.defect_rate)),
                            ("pre_repair_ok".into(), Json::int(p.pre_repair_ok)),
                            ("post_repair_ok".into(), Json::int(p.post_repair_ok)),
                            ("pre_yield".into(), Json::Num(p.pre_yield())),
                            ("post_yield".into(), Json::Num(p.post_yield())),
                            ("by_permutation".into(), Json::int(p.by_permutation)),
                            ("by_spares".into(), Json::int(p.by_spares)),
                            ("by_resynthesis".into(), Json::int(p.by_resynthesis)),
                            ("irreparable".into(), Json::int(p.irreparable)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn small_design() -> (Network, Crossbar, Config) {
        let b = flowc_logic::bench_suite::by_name("ctrl").unwrap();
        let n = crate::build_network(&b);
        let r = crate::run_compact(&n, 0.5, Duration::from_secs(5));
        (n, r.crossbar, Config::default())
    }

    #[test]
    fn campaign_designs_come_only_from_repairable_backends() {
        let b = flowc_logic::bench_suite::by_name("ctrl").unwrap();
        let n = crate::build_network(&b);
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(10));
        let design = campaign_design(&n, &flowc_baselines::Backend::default(), &budget)
            .expect("compact is repairable");
        assert!(design.rows() > 0 && design.cols() > 0);
        for name in ["magic-nor", "partitioned"] {
            let backend = flowc_baselines::Backend::parse(name).unwrap();
            let err = campaign_design(&n, &backend, &budget).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn campaign_is_deterministic_and_repair_helps() {
        let (n, x, synth) = small_design();
        let cfg = CampaignConfig {
            trials: 8,
            verify_samples: 64,
            ..CampaignConfig::default()
        };
        let rates = [0.002, 0.02];
        let a = run_campaign(&n, &x, &synth, &rates, &cfg);
        let b = run_campaign(&n, &x, &synth, &rates, &cfg);
        assert_eq!(a, b, "same seed must reproduce the same campaign");
        for p in &a {
            assert!(
                p.post_repair_ok >= p.pre_repair_ok,
                "repair can only help: {p:?}"
            );
            assert_eq!(p.post_repair_ok + p.irreparable, p.trials);
        }
    }

    #[test]
    fn zero_defect_rate_gives_full_yield() {
        let (n, x, synth) = small_design();
        let cfg = CampaignConfig {
            trials: 3,
            verify_samples: 64,
            ..CampaignConfig::default()
        };
        let points = run_campaign(&n, &x, &synth, &[0.0], &cfg);
        assert_eq!(points[0].pre_repair_ok, 3);
        assert_eq!(points[0].post_repair_ok, 3);
        assert!((points[0].post_yield() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn campaign_json_has_the_schema_fields() {
        let (n, x, synth) = small_design();
        let cfg = CampaignConfig {
            trials: 2,
            verify_samples: 32,
            ..CampaignConfig::default()
        };
        let points = run_campaign(&n, &x, &synth, &[0.01], &cfg);
        let j = campaign_json("ctrl", &x, &cfg, &points);
        let s = j.to_pretty();
        for key in [
            "benchmark",
            "defect_rate",
            "pre_yield",
            "post_yield",
            "irreparable",
            "seed",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
