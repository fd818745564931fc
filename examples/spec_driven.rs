//! Scheduler-from-a-spec: the paper's claim that SFC scheduling lets you
//! *generate* schedulers the way parser generators generate parsers (§1,
//! advantage 4). Pass a spec on the command line (or rely on the default)
//! and the same binary becomes a different disk scheduler.
//!
//! ```text
//! cargo run --release --example spec_driven
//! cargo run --release --example spec_driven -- \
//!     'sfc2 = weighted : f=8, horizon=700ms; dispatch = batch'
//! cargo run --release --example spec_driven -- \
//!     'sfc3 = r=1 : cylinders=3832, circular; dispatch = batch'  # ≈ C-SCAN
//! ```

use cascaded_sfc::cascade::{spec, CascadedSfc};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sim::{simulate, DiskService, SimOptions};
use cascaded_sfc::workload::PoissonConfig;

const DEFAULT_SPEC: &str = "
    # The paper's full Cascaded-SFC scheduler.
    sfc1 = diagonal : dims=3, levels=8
    sfc2 = weighted : f=1, horizon=700ms
    sfc3 = r=3 : cylinders=3832
    dispatch = conditional : w=10%, sp, er=2
";

fn main() {
    let spec_text = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_SPEC.to_string());
    let config = match spec::parse(&spec_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spec error: {e}");
            std::process::exit(2);
        }
    };
    println!("spec:\n{}", spec_text.trim());
    println!("\nparsed configuration:\n{config:#?}\n");

    let mut scheduler = match CascadedSfc::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("configuration error: {e}");
            std::process::exit(2);
        }
    };

    let mut wl = PoissonConfig::figure8(10_000);
    wl.mean_interarrival_us = 22_000;
    let trace: Vec<_> = wl.generate(23).collect();
    let mut service = DiskService::table1();
    let m = simulate(
        &mut scheduler,
        &trace,
        &mut service,
        SimOptions::with_shape(3, 8).dropping(),
        &mut NullSink,
    );
    println!("requests      {}", m.requests_total());
    println!(
        "losses        {} ({:.1}%)",
        m.losses_total(),
        m.loss_ratio() * 100.0
    );
    println!(
        "mean seek     {:.2} ms",
        m.seek_us as f64 / 1000.0 / m.served.max(1) as f64
    );
    println!("mean response {:.1} ms", m.mean_response_us() / 1000.0);
    println!("inversions    {}", m.inversions_total());
}
