//! Reproduce Figure 4: elastic partitioner insert and reorganization
//! durations, with load-balancing labels (relative standard deviation).

use bench_harness::experiments::{fig4_rows, fig4_table, Fig4Row, AIS_SEED, MODIS_SEED};
use bench_harness::table::out_dir;
use workloads::{AisWorkload, ModisWorkload};

fn main() {
    let modis = fig4_rows(&ModisWorkload::with_seed(MODIS_SEED));
    let ais = fig4_rows(&AisWorkload::with_seed(AIS_SEED));

    let t = fig4_table(&modis, &ais);
    println!("Figure 4: insert and reorganization durations; labels are load");
    println!("balance in relative standard deviation (lower = more even).\n");
    print!("{}", t.render());

    // The paper's headline ratios.
    let incr: Vec<_> = modis
        .iter()
        .zip(&ais)
        .filter(|(m, _)| m.kind.features().incremental_scale_out && m.reorg_mins > 0.0)
        .collect();
    let glob: Vec<_> =
        modis.iter().zip(&ais).filter(|(m, _)| !m.kind.features().incremental_scale_out).collect();
    let mean = |rows: &[(&Fig4Row, &Fig4Row)]| {
        rows.iter().map(|(m, a)| m.reorg_mins + a.reorg_mins).sum::<f64>() / rows.len() as f64
    };
    println!(
        "\nglobal/incremental mean reorg ratio: {:.1}x (paper: ~2.5x)",
        mean(&glob) / mean(&incr)
    );
    if let Some(path) = t.write_csv(&out_dir(), "fig4") {
        println!("csv: {}", path.display());
    }
}
