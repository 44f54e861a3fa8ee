//! Cross-crate integration: every prefetch policy on every workload class
//! runs to completion under the simulator with sane accounting, and the
//! headline qualitative results hold.

use std::time::Duration;

use hfetch::prelude::*;

fn hierarchy() -> Hierarchy {
    Hierarchy::with_budgets(mib(32), mib(64), mib(128))
}

fn policies(scripts: &[RankScript]) -> Vec<Box<dyn PrefetchPolicy>> {
    vec![
        Box::new(NoPrefetch),
        Box::new(WindowPrefetcher::serial(4, MIB, TierId(0))),
        Box::new(WindowPrefetcher::parallel(4, 4, MIB, TierId(0))),
        Box::new(InMemoryNaive::new(4, MIB, 8)),
        Box::new(InMemoryOptimal::new(mib(32), 16, 4, MIB, 2)),
        Box::new(AppCentricPrefetcher::new(4, MIB, TierId(0), 8)),
        Box::new(StackerLike::new(MIB, TierId(0), 2, 8)),
        Box::new(KnowAcLike::from_scripts(scripts, 4, MIB, TierId(0), 8)),
        Box::new(HFetchPolicy::new(HFetchConfig::default(), &hierarchy())),
    ]
}

fn check_accounting(report: &SimReport, scripts: &[RankScript]) {
    let requested: u64 = scripts.iter().map(|s| s.read_bytes()).sum();
    assert!(report.bytes_requested <= requested);
    assert_eq!(
        report.hit_bytes() + report.miss_bytes(),
        report.bytes_requested,
        "every requested byte is a hit or a miss ({})",
        report.policy
    );
    assert_eq!(report.rank_finish.len(), scripts.len());
    assert!(report.makespan >= Duration::ZERO);
    // Cache tiers never exceed their budgets.
    let h = hierarchy();
    for (tier, spec) in h.iter_cache() {
        assert!(
            report.tiers[tier.index()].peak_bytes <= spec.capacity,
            "{}: tier {tier} over budget",
            report.policy
        );
    }
}

#[test]
fn every_policy_completes_every_workload_class() {
    let workloads: Vec<(&str, Vec<hfetch::sim::script::SimFile>, Vec<RankScript>)> = vec![
        {
            let w = PatternWorkload {
                pattern: AccessPattern::Repetitive { laps: 2 },
                processes: 16,
                apps: 4,
                dataset: mib(64),
                request: MIB,
                requests_per_process: 8,
                compute: Duration::from_millis(5),
                seed: 1,
            };
            let (f, s) = w.build();
            ("patterns", f, s)
        },
        {
            let w = MontageWorkflow {
                processes: 16,
                io_per_step: MIB,
                time_steps: 16,
                compute: Duration::from_millis(5),
                seed: 2,
            };
            let (f, s) = w.build();
            ("montage", f, s)
        },
        {
            let w = WrfWorkflow {
                processes: 16,
                bytes_per_step: mib(32),
                time_steps: 4,
                request: MIB,
                iterations: 2,
                compute: Duration::from_millis(5),
            };
            let (f, s) = w.build();
            ("wrf", f, s)
        },
        {
            let w = PipelineWorkflow {
                producers: 4,
                consumer_apps: 2,
                consumers_per_app: 4,
                stages: 2,
                write_per_producer: mib(4),
                read_passes: 2,
                request: MIB,
                compute: Duration::from_millis(5),
            };
            let (f, s) = w.build();
            ("pipeline", f, s)
        },
    ];

    for (name, files, scripts) in workloads {
        for policy in policies(&scripts) {
            let policy_name = policy.name().to_string();
            let (report, _) = Simulation::new(
                SimConfig::new(hierarchy()),
                files.clone(),
                scripts.clone(),
                policy,
            )
            .run();
            check_accounting(&report, &scripts);
            assert!(
                report.seconds() > 0.0,
                "{name}/{policy_name}: zero makespan is suspicious"
            );
        }
    }
}

#[test]
fn prefetching_beats_none_on_reuse_heavy_workload() {
    let w = PatternWorkload {
        pattern: AccessPattern::Repetitive { laps: 4 },
        processes: 16,
        apps: 4,
        dataset: mib(128),
        request: MIB,
        requests_per_process: 32,
        compute: Duration::from_millis(10),
        seed: 3,
    };
    let (files, scripts) = w.build();
    let run = |p: Box<dyn PrefetchPolicy>| {
        Simulation::new(SimConfig::new(hierarchy()), files.clone(), scripts.clone(), p)
            .run()
            .0
    };
    let none = run(Box::new(NoPrefetch));
    let hfetch = run(Box::new(HFetchPolicy::new(HFetchConfig::default(), &hierarchy())));
    assert!(hfetch.hit_ratio().unwrap() > 0.5, "{:?}", hfetch.hit_ratio());
    assert!(
        hfetch.seconds() < none.seconds(),
        "hfetch {} vs none {}",
        hfetch.seconds(),
        none.seconds()
    );
}

#[test]
fn simulation_is_deterministic_across_policies() {
    let w = MontageWorkflow {
        processes: 12,
        io_per_step: MIB,
        time_steps: 16,
        compute: Duration::from_millis(3),
        seed: 9,
    };
    for build_policy in [
        || Box::new(NoPrefetch) as Box<dyn PrefetchPolicy>,
        || Box::new(HFetchPolicy::new(HFetchConfig::default(), &hierarchy())) as _,
        || Box::new(StackerLike::new(MIB, TierId(0), 2, 8)) as _,
    ] {
        let (f1, s1) = w.build();
        let (r1, _) =
            Simulation::new(SimConfig::new(hierarchy()), f1, s1, build_policy()).run();
        let (f2, s2) = w.build();
        let (r2, _) =
            Simulation::new(SimConfig::new(hierarchy()), f2, s2, build_policy()).run();
        assert_eq!(r1.makespan, r2.makespan, "{}", r1.policy);
        assert_eq!(r1.hit_bytes(), r2.hit_bytes());
        assert_eq!(r1.prefetch_bytes, r2.prefetch_bytes);
        assert_eq!(r1.rank_finish, r2.rank_finish);
    }
}

#[test]
fn knowac_profile_cost_is_the_tradeoff() {
    // KnowAc's read time beats Stacker's, but adding the profile run
    // (one unprefetched execution) flips the end-to-end comparison —
    // the paper's Fig. 6 structure.
    let w = MontageWorkflow {
        processes: 32,
        io_per_step: MIB,
        time_steps: 16,
        compute: Duration::from_millis(8),
        seed: 11,
    };
    let (files, scripts) = w.build();
    let run = |p: Box<dyn PrefetchPolicy>| {
        Simulation::new(SimConfig::new(hierarchy()), files.clone(), scripts.clone(), p)
            .run()
            .0
    };
    let none = run(Box::new(NoPrefetch));
    let knowac = run(Box::new(KnowAcLike::from_scripts(&scripts, 4, MIB, TierId(0), 16)));
    let end_to_end = knowac.seconds() + none.seconds();
    assert!(
        end_to_end > none.seconds(),
        "profile cost must make knowac lose end-to-end to plain reads"
    );
    assert!(knowac.hit_ratio().unwrap() > 0.3, "{:?}", knowac.hit_ratio());
}
