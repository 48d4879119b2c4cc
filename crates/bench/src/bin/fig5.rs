//! Reproduce Figure 5: total benchmark times per elastic partitioner,
//! split into the Science and SPJ suites, for both workloads.

use bench_harness::experiments::{fig5_rows, fig5_table, AIS_SEED, MODIS_SEED};
use bench_harness::table::out_dir;
use workloads::{AisWorkload, ModisWorkload};

fn main() {
    let modis = fig5_rows(&ModisWorkload::with_seed(MODIS_SEED));
    let ais = fig5_rows(&AisWorkload::with_seed(AIS_SEED));

    let t = fig5_table(&modis, &ais);
    println!("Figure 5: benchmark times for elastic partitioners.\n");
    print!("{}", t.render());
    if let Some(path) = t.write_csv(&out_dir(), "fig5") {
        println!("\ncsv: {}", path.display());
    }
}
