//! The paper's §6.2 numbers as tests: Figures 4 to 7 byte for byte
//! against their committed CSVs, and every query's cost to the bit.
//!
//! `fig5.csv` rounds each suite to 0.1 simulated minutes, so a change that
//! moves one query's `elapsed_secs` in its low bits — a float tally summed
//! in another order, a shuffle pushed in another order — passes the CSV
//! unseen. The digest below folds every per-query `QueryStats` of all 16
//! `section62_run(kind, workload, true)` runs (8 partitioners × MODIS,
//! AIS): each query's name, `elapsed_secs` as bits, and every count.
//! Figures 6 and 7 are per-cycle series of one query each (`spj/join` on
//! MODIS, `science/modeling` on AIS) and read the same 16 runs.
//!
//! `UPDATE_GOLDEN=1 cargo test -p bench-harness --test paper_goldens`
//! rewrites the four CSVs from the simulator (the diff then belongs in the
//! change that moved them). The digest is not re-blessed: it is edited by
//! hand, with the reason.

use bench_harness::experiments::{
    fig4_rows, fig4_table, fig5_table, section62_run, series_table, Fig5Row, SeriesRow, AIS_SEED,
    MODIS_SEED,
};
use bench_harness::table::{out_dir, TextTable};
use elastic_core::hashing::fnv1a;
use elastic_core::PartitionerKind;
use workloads::{AisWorkload, ModisWorkload, RunReport, Workload};

/// The digest of every §6.2 query's `QueryStats` (1 264 queries).
const SECTION62_QUERY_STATS: u64 = 0x2c08_7b37_31b7_2913;

/// FNV-1a over every query record of `report`, chained onto `h`.
fn fold(h: u64, report: &RunReport) -> u64 {
    let mut bytes = Vec::new();
    for suites in report.cycles.iter().filter_map(|c| c.suites.as_ref()) {
        for q in &suites.queries {
            bytes.extend_from_slice(q.name.as_bytes());
            bytes.push(0xff);
            let s = &q.stats;
            for word in [
                s.elapsed_secs.to_bits(),
                s.bytes_scanned,
                s.bytes_shuffled,
                s.chunks_visited,
                s.chunks_pruned,
                s.remote_fetches,
            ] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    bytes.extend_from_slice(&h.to_le_bytes());
    fnv1a(&bytes)
}

/// `table` rendered as CSV equals `crates/bench/out/{name}.csv`, or, under
/// `UPDATE_GOLDEN=1`, becomes it.
fn assert_csv(name: &str, table: &TextTable) {
    let path = out_dir().join(format!("{name}.csv"));
    let csv = table.csv();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &csv).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        csv == committed,
        "{name}.csv moved (UPDATE_GOLDEN=1 re-blesses):\n--- committed\n{committed}--- now\n{csv}"
    );
}

#[test]
fn section62_query_costs_and_fig5_reproduce() {
    let modis = ModisWorkload::with_seed(MODIS_SEED);
    let ais = AisWorkload::with_seed(AIS_SEED);
    let mut h = 0;
    let mut queries = 0;
    // Each workload's Figure 5 bars and the per-cycle series of `query`.
    let mut rows = |workload: &dyn Workload, query: &str| -> (Vec<Fig5Row>, Vec<SeriesRow>) {
        let runs = PartitionerKind::ALL.iter().map(|&kind| section62_run(kind, workload, true));
        runs.map(|report| {
            let suites = report.cycles.iter().filter_map(|c| c.suites.as_ref());
            queries += suites.map(|s| s.queries.len()).sum::<usize>();
            h = fold(h, &report);
            let mins_per_cycle = report.query_series(query).iter().map(|s| s / 60.0).collect();
            (Fig5Row::of(&report), SeriesRow { kind: report.partitioner, mins_per_cycle })
        })
        .unzip()
    };
    let (modis_rows, fig6) = rows(&modis, "spj/join");
    let (ais_rows, fig7) = rows(&ais, "science/modeling");
    assert_eq!(queries, 1_264);
    assert_eq!(h, SECTION62_QUERY_STATS, "the §6.2 query costs moved: {h:#018x}");
    assert_csv("fig5", &fig5_table(&modis_rows, &ais_rows));
    assert_csv("fig6", &series_table(&fig6));
    assert_csv("fig7", &series_table(&fig7));
}

#[test]
fn fig4_reproduces() {
    let modis = fig4_rows(&ModisWorkload::with_seed(MODIS_SEED));
    let ais = fig4_rows(&AisWorkload::with_seed(AIS_SEED));
    assert_csv("fig4", &fig4_table(&modis, &ais));
}
