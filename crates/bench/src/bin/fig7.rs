//! Reproduce Figure 7: AIS k-nearest-neighbour duration per workload
//! cycle (skewed data), for every partitioner.

use bench_harness::experiments::{fig7_series, series_table};
use bench_harness::table::out_dir;

fn main() {
    let t = series_table(&fig7_series());
    println!("Figure 7: k-nearest-neighbour duration (minutes) per cycle, skewed AIS data.\n");
    print!("{}", t.render());
    if let Some(path) = t.write_csv(&out_dir(), "fig7") {
        println!("\ncsv: {}", path.display());
    }
}
