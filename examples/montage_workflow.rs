//! The Montage astronomical-mosaic workflow across four prefetchers.
//!
//! ```text
//! cargo run --release --example montage_workflow
//! ```
//!
//! A miniature of the paper's Fig. 6(a): the Montage I/O model (sequential
//! projection, staggered re-projection, repetitive difference fitting,
//! correction) runs against no prefetching, a Stacker-like online engine,
//! a KnowAc-like history replayer (profile cost reported separately), and
//! HFetch over a RAM + NVMe hierarchy with the data staged in burst
//! buffers.

use std::time::Duration;

use hfetch::prelude::*;

fn main() {
    let workflow = MontageWorkflow {
        processes: 64,
        io_per_step: MIB,
        time_steps: 16,
        compute: Duration::from_millis(15),
        seed: 42,
    };
    let (files, scripts) = workflow.build();
    let total: u64 = scripts.iter().map(|s| s.read_bytes()).sum();
    println!(
        "Montage model: {} processes x {} steps, {} read in total\n",
        workflow.processes,
        workflow.time_steps,
        fmt_bytes(total),
    );

    // Data staged in burst buffers: the backing tier has BB performance.
    let flat = Hierarchy::new(vec![TierSpec::ram(mib(48)), TierSpec::bb_backing()]).unwrap();
    let hier = Hierarchy::new(vec![
        TierSpec::ram(mib(48)),
        TierSpec::nvme(mib(64)),
        TierSpec::bb_backing(),
    ])
    .unwrap();
    let nodes = 2;

    let (none, _) = Simulation::new(
        SimConfig::new(flat.clone()).with_nodes(nodes),
        files.clone(),
        scripts.clone(),
        NoPrefetch,
    )
    .run();

    let (stacker, _) = Simulation::new(
        SimConfig::new(flat.clone()).with_nodes(nodes),
        files.clone(),
        scripts.clone(),
        StackerLike::new(MIB, TierId(0), 2, 32),
    )
    .run();

    let knowac_policy = KnowAcLike::from_scripts(&scripts, 4, MIB, TierId(0), 32);
    let (knowac, _) = Simulation::new(
        SimConfig::new(flat).with_nodes(nodes),
        files.clone(),
        scripts.clone(),
        knowac_policy,
    )
    .run();

    let cfg = HFetchConfig {
        segment_size: MIB,
        // Fig. 6's measured lookahead (see `hfetch_cfg` in the bench crate).
        lookahead: 2,
        max_inflight_fetches: 32,
        ..Default::default()
    };
    let (hfetch, _) = Simulation::new(
        SimConfig::new(hier.clone()).with_nodes(nodes),
        files,
        scripts,
        HFetchPolicy::new(cfg, &hier),
    )
    .run();

    println!("{:<22} {:>9} {:>8}", "system", "time (s)", "hit %");
    for (name, r, extra) in [
        ("no prefetching", &none, 0.0),
        ("stacker (online)", &stacker, 0.0),
        ("knowac (read only)", &knowac, 0.0),
        ("knowac (+profile)", &knowac, none.seconds()),
        ("hfetch", &hfetch, 0.0),
    ] {
        println!(
            "{:<22} {:>9.3} {:>8.1}",
            name,
            r.seconds() + extra,
            r.hit_ratio().unwrap_or(0.0) * 100.0
        );
    }
    println!("\n(knowac replays a recorded trace; the profile run that records it costs one\n unprefetched execution, shown as '+profile' — the paper's Fig. 6 stack)");
}
