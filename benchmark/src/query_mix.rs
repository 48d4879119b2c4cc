//! `query_mix` — read-only: AIS (10 × 200k rows) and MODIS (14 × 100k
//! pixels, no TTL) are loaded through the runner during set-up, then every
//! pass issues the thirteen queries of the two §3.3 suites at the newest
//! cycle plus the scan-family operators in a *narrow* form (newest data,
//! most chunks refutable by region, zone map or dictionary) and a *wide*
//! form (whole array, nothing prunable). Each execution is one latency
//! sample.
//!
//! Why: `query` does all the work and ingest none. Narrow against wide
//! puts a query on each side of pruning, and the suites carry the
//! row-at-a-time operators (joins, rolling and window aggregates, k-means,
//! kNN, trajectory) that a single scan path would rewrite. The data
//! (≈140 MB of AIS alone) is far beyond the CPU caches.

use crate::ais_ingest;
use crate::common::{
    digest_query_stats, end_to_end, median_setup, repeat_until, space_amp, Ops, Opts, Outcome,
    Samples, MODIS_SEED,
};
use crate::layers;
use crate::replay::{Inputs, ReplayWorkload};
use crate::trace;
use crate::util::{median_or_zero, Fnv};
use array_model::Region;
use elastic_core::PartitionerKind;
use query_engine::ops::{self, AggFn, GroupSpec};
use query_engine::{ExecutionContext, Predicate, QueryError, QueryStats};
use std::time::Instant;
use workloads::ais::BROADCAST;
use workloads::modis::{BAND1, BAND2};
use workloads::{
    ais, AisWorkload, ModisWorkload, RunnerConfig, ScalingPolicy, SuiteReport, Workload,
    WorkloadRunner,
};

type Answer = Result<(u64, QueryStats), QueryError>;

/// Which loaded store a query reads.
#[derive(Clone, Copy, PartialEq)]
enum On {
    Ais,
    Modis,
}

/// One query of the mix: the span it runs under (its per-layer metric is
/// `<span>_ms`), the store it reads, the suite query it must agree with
/// (by its name in that store's `SuiteReport`), and the call.
struct Query {
    span: &'static str,
    on: On,
    suite: Option<&'static str>,
    run: Box<dyn Fn(&ExecutionContext<'_>) -> Answer>,
}

fn digest_of(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::default();
    f(&mut h);
    h.0
}

fn groups_digest(rows: &[ops::GroupRow]) -> u64 {
    digest_of(|h| {
        for g in rows {
            g.key.iter().for_each(|&k| h.i64(k));
            h.f64(g.value);
            h.u64(g.cells);
        }
    })
}

fn cells_digest(set: &ops::CellSet) -> u64 {
    digest_of(|h| {
        h.u64(set.len() as u64);
        for (cell, values) in &set.cells {
            cell.iter().for_each(|&c| h.i64(c));
            values.iter().for_each(|v| h.f64(v.as_f64().unwrap_or(0.0)));
        }
    })
}

fn quantile_digest(q: &ops::QuantileResult) -> u64 {
    digest_of(|h| {
        h.f64(q.value.unwrap_or(f64::NAN));
        h.u64(q.sampled_cells);
    })
}

fn join_digest(j: &ops::JoinResult) -> u64 {
    digest_of(|h| {
        h.u64(j.matches);
        h.f64(j.combined_sum);
    })
}

const MINUTES_PER_DAY: i64 = 1440;
const MINUTES_PER_TC: i64 = 43_200;
const TCS_PER_CYCLE: i64 = 4;

/// The mix at AIS cycle `c` and MODIS day `day`. The suite queries repeat
/// `AisWorkload::run_suites` / `ModisWorkload::run_suites` call for call
/// (checked against `run_suites_only` once per process); the rest are the
/// scan-family forms the suites lack.
fn queries(ais_gen: &AisWorkload, c: usize, day: i64) -> Vec<Query> {
    fn q(
        span: &'static str,
        on: On,
        suite: Option<&'static str>,
        run: impl Fn(&ExecutionContext<'_>) -> Answer + 'static,
    ) -> Query {
        Query { span, on, suite, run: Box::new(run) }
    }
    let cycle_region = AisWorkload::cycle_region(c);
    let houston = AisWorkload::houston_region(c);
    let knn_points = ais_gen.knn_queries(c, 96);
    let newest_tc = Region::new(
        vec![((c as i64 + 1) * TCS_PER_CYCLE - 1) * MINUTES_PER_TC, -180, 0],
        vec![(c as i64 + 1) * TCS_PER_CYCLE * MINUTES_PER_TC - 1, -66, 90],
    );
    let whole_ais = Region::new(
        vec![0, -180, 0],
        vec![(c as i64 + 1) * TCS_PER_CYCLE * MINUTES_PER_TC - 1, -66, 90],
    );
    let newest_voyages = Predicate::ge((c * 1_000) as f64);

    let sixteenth = Region::new(
        vec![(day - 3).max(0) * MINUTES_PER_DAY, -180, -90],
        vec![(day + 1) * MINUTES_PER_DAY - 1, -91, -46],
    );
    let week = ModisWorkload::day_region((day - 6).max(0), day);
    let newest_day = ModisWorkload::day_region(day, day);
    let week_start = (day - 6).max(0) * MINUTES_PER_DAY;
    let day_end = (day + 1) * MINUTES_PER_DAY - 1;
    let north = Region::new(vec![week_start, -180, 66], vec![day_end, 180, 90]);
    let south = Region::new(vec![week_start, -180, -90], vec![day_end, 180, -66]);
    let amazon = Region::new(vec![day * MINUTES_PER_DAY, -75, -15], vec![day_end, -50, 5]);

    let (r1, r2, r3, r4) =
        (cycle_region.clone(), cycle_region.clone(), cycle_region, newest_day.clone());
    vec![
        // --- the AIS suite ---
        q("query.subarray_narrow", On::Ais, Some("spj/selection"), move |ctx| {
            ops::subarray(ctx, BROADCAST, &houston, &["speed", "status"])
                .map(|(a, s)| (cells_digest(&a), s))
        }),
        q("query.distinct_sorted_narrow", On::Ais, Some("spj/sort"), move |ctx| {
            ops::distinct_sorted(ctx, BROADCAST, Some(&r1), "ship_id")
                .map(|(a, s)| (digest_of(|h| a.iter().for_each(|&v| h.i64(v))), s))
        }),
        q("query.lookup_join", On::Ais, Some("spj/join"), move |ctx| {
            ops::lookup_join(ctx, BROADCAST, ais::VESSEL, Some(&r2), "ship_id", "ship_type")
                .map(|(a, s)| (join_digest(&a), s))
        }),
        q("query.grid_aggregate_narrow", On::Ais, Some("science/statistics"), move |ctx| {
            let spec = GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
            ops::grid_aggregate(ctx, BROADCAST, Some(&r3), "speed", &spec, AggFn::Count)
                .map(|(a, s)| (groups_digest(&a), s))
        }),
        q("query.knn", On::Ais, Some("science/modeling"), move |ctx| {
            ops::knn(ctx, BROADCAST, &knn_points, 10).map(|(a, s)| {
                let d =
                    digest_of(|h| a.iter().flat_map(|k| &k.neighbor_dist2).for_each(|&d| h.f64(d)));
                (d, s)
            })
        }),
        q("query.trajectory", On::Ais, Some("science/projection"), move |ctx| {
            ops::trajectory(ctx, BROADCAST, &newest_tc, "speed", "course", 0.25).map(|(a, s)| {
                (
                    digest_of(|h| {
                        h.u64(a.projected);
                        h.u64(a.collision_candidates)
                    }),
                    s,
                )
            })
        }),
        // --- the MODIS suite ---
        q("query.subarray_modis", On::Modis, Some("spj/selection"), move |ctx| {
            ops::subarray(ctx, BAND1, &sixteenth, &["radiance"]).map(|(a, s)| (cells_digest(&a), s))
        }),
        q("query.quantile_narrow", On::Modis, Some("spj/sort"), move |ctx| {
            ops::quantile(ctx, BAND1, Some(&week), "radiance", 0.5, 0.01)
                .map(|(a, s)| (quantile_digest(&a), s))
        }),
        q("query.positional_join", On::Modis, Some("spj/join"), move |ctx| {
            ops::positional_join(ctx, BAND1, BAND2, &r4, "radiance", "radiance", |b1, b2| {
                (b2 - b1) / (b2 + b1 + 1e-9)
            })
            .map(|(a, s)| (join_digest(&a), s))
        }),
        q("query.rolling_aggregate", On::Modis, Some("science/statistics-north"), move |ctx| {
            let spec = GroupSpec::by_dims(vec![1, 2]);
            ops::rolling_aggregate(ctx, BAND1, Some(&north), "si_value", &spec, AggFn::Avg, 0)
                .map(|(a, s)| (groups_digest(&a), s))
        }),
        q("query.rolling_aggregate", On::Modis, Some("science/statistics-south"), move |ctx| {
            let spec = GroupSpec::by_dims(vec![1, 2]);
            ops::rolling_aggregate(ctx, BAND1, Some(&south), "si_value", &spec, AggFn::Avg, 0)
                .map(|(a, s)| (groups_digest(&a), s))
        }),
        q("query.kmeans", On::Modis, Some("science/modeling"), move |ctx| {
            ops::kmeans(ctx, BAND1, &amazon, "reflectance", 5, 12).map(|(a, s)| {
                (
                    digest_of(|h| {
                        a.centroids.iter().flatten().for_each(|&v| h.f64(v));
                        h.f64(a.inertia);
                        h.u64(a.points)
                    }),
                    s,
                )
            })
        }),
        q("query.window_aggregate", On::Modis, Some("science/projection"), move |ctx| {
            ops::window_aggregate(ctx, BAND1, &newest_day, "reflectance", 2).map(|(a, s)| {
                (
                    digest_of(|h| {
                        h.f64(a.mean.unwrap_or(f64::NAN));
                        h.u64(a.outputs)
                    }),
                    s,
                )
            })
        }),
        // --- scan family, the forms the suites lack ---
        q("query.subarray_wide", On::Modis, None, |ctx| {
            let all = ModisWorkload::day_region(0, 13);
            ops::subarray(ctx, BAND2, &all, &["radiance"]).map(|(a, s)| (cells_digest(&a), s))
        }),
        q("query.filter_num_narrow", On::Ais, None, {
            let whole = whole_ais.clone();
            move |ctx| ops::filter_count(ctx, BROADCAST, &whole, "voyage_id", &newest_voyages)
        }),
        q("query.filter_num_wide", On::Ais, None, {
            let whole = whole_ais.clone();
            move |ctx| ops::filter_count(ctx, BROADCAST, &whole, "speed", &Predicate::gt(12.0))
        }),
        // Dictionary predicates: a value no chunk holds (every chunk
        // refuted by a dictionary probe) against one most chunks hold.
        q("query.filter_dict_narrow", On::Ais, None, {
            let whole = whole_ais.clone();
            move |ctx| {
                ops::filter_count(ctx, BROADCAST, &whole, "provenance", &Predicate::str_eq("radar"))
            }
        }),
        q("query.filter_dict_wide", On::Ais, None, {
            let whole = whole_ais.clone();
            move |ctx| {
                ops::filter_count(ctx, BROADCAST, &whole, "receiver_id", &Predicate::str_eq("r007"))
            }
        }),
        q("query.grid_aggregate_wide", On::Ais, None, |ctx| {
            let spec = GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
            ops::grid_aggregate(ctx, BROADCAST, None, "speed", &spec, AggFn::Count)
                .map(|(a, s)| (groups_digest(&a), s))
        }),
        q("query.quantile_wide", On::Modis, None, |ctx| {
            ops::quantile(ctx, BAND1, None, "radiance", 0.5, 0.01)
                .map(|(a, s)| (quantile_digest(&a), s))
        }),
        q("query.distinct_sorted_wide", On::Ais, None, |ctx| {
            ops::distinct_sorted(ctx, BROADCAST, None, "ship_id")
                .map(|(a, s)| (digest_of(|h| a.iter().for_each(|&v| h.i64(v))), s))
        }),
    ]
}

fn modis_generator(opts: &Opts) -> ModisWorkload {
    ModisWorkload {
        cells_per_cycle: opts.modis_pixels(),
        seed: MODIS_SEED ^ opts.seed,
        ..ModisWorkload::default()
    }
}

fn modis_config(opts: &Opts) -> RunnerConfig {
    RunnerConfig {
        partitioner: PartitionerKind::ConsistentHash,
        // ≈60 B per pixel row, 1.5 rows per pixel: two days fill a node.
        node_capacity: 60 * opts.modis_pixels() * 3,
        initial_nodes: 2,
        scaling: ScalingPolicy::FixedStep { add: 2, trigger: 0.8 },
        run_queries: false,
        ingest_threads: 1,
        ..RunnerConfig::default()
    }
}

/// Both arrays loaded, ready to query.
struct Loaded {
    ais: WorkloadRunner<'static>,
    modis: WorkloadRunner<'static>,
    live_user_bytes: u64,
}

fn load<W: Workload + Clone + 'static>(
    gen: &W,
    config: RunnerConfig,
) -> Result<(WorkloadRunner<'static>, u64), String> {
    let inputs = trace::timed("workloads.generate", || Inputs::generate(gen));
    let user: u64 = inputs.user_bytes.iter().sum();
    let mut runner = WorkloadRunner::new_owned(ReplayWorkload::new(gen.clone(), &inputs), config);
    for c in 0..gen.cycles() {
        runner.run_cycle(c).map_err(|e| format!("loading {} cycle {c}: {e}", gen.name()))?;
    }
    Ok((runner, user))
}

fn set_up(opts: &Opts) -> Result<Loaded, String> {
    let (ais, ais_bytes) = load(&ais_ingest::generator(opts), ais_ingest::config(opts))?;
    let (modis, modis_bytes) = load(&modis_generator(opts), modis_config(opts))?;
    Ok(Loaded { ais, modis, live_user_bytes: ais_bytes + modis_bytes })
}

/// What one pass returned, to hold every later pass against.
type PassAnswers = Vec<(u64, QueryStats)>;

fn pass(
    mix: &[Query],
    loaded: &Loaded,
    pass_no: u64,
    ops: &mut Ops,
    query_ms: &mut Samples,
) -> PassAnswers {
    let ais_ctx = ExecutionContext::new(loaded.ais.cluster(), loaded.ais.catalog());
    let modis_ctx = ExecutionContext::new(loaded.modis.cluster(), loaded.modis.catalog());
    let mut answers = Vec::with_capacity(mix.len());
    for (i, query) in mix.iter().enumerate() {
        let ctx = if query.on == On::Ais { &ais_ctx } else { &modis_ctx };
        trace::set_op(pass_no * mix.len() as u64 + i as u64);
        ops.attempted += 1;
        let t = Instant::now();
        let result = trace::timed(query.span, || (query.run)(ctx));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(answer) => {
                query_ms.push(i, ms);
                answers.push(answer);
            }
            Err(e) => {
                ops.fail(format!("{}: {e}", query.span));
                answers.push((0, QueryStats::default()));
            }
        }
    }
    answers
}

/// The mix's suite queries must be the suites' queries: same count per
/// suite, same `QueryStats` as `run_suites_only` reports for each.
fn check_against_suites(
    ops: &mut Ops,
    mix: &[Query],
    answers: &PassAnswers,
    ais: &SuiteReport,
    modis: &SuiteReport,
) {
    ops.check(ais.queries.len() == 6, || {
        format!("AIS suite ran {} of 6 queries", ais.queries.len())
    });
    ops.check(modis.queries.len() == 7, || {
        format!("MODIS suite ran {} of 7 queries", modis.queries.len())
    });
    for (query, (_, stats)) in mix.iter().zip(answers) {
        let Some(name) = query.suite else { continue };
        let report = if query.on == On::Ais { ais } else { modis };
        ops.check(report.query(name) == Some(stats), || {
            format!("{} disagrees with suite query {name}", query.span)
        });
    }
}

/// Passes until `seconds` have passed, each held against `reference`.
fn passes_for(
    seconds: f64,
    mix: &[Query],
    loaded: &Loaded,
    opts: &Opts,
    ops: &mut Ops,
    reference: &PassAnswers,
) -> Samples {
    let mut query_ms = Samples::default();
    repeat_until(opts, seconds, |n| {
        let answers = pass(mix, loaded, n as u64 + 1, ops, &mut query_ms);
        ops.check(*reference == answers, || {
            format!("pass {} returned different answers from the reference pass", n + 1)
        });
        true
    });
    query_ms
}

pub fn run(opts: &Opts) -> Outcome {
    let mut ops = Ops::default();
    let ais_gen = ais_ingest::generator(opts);
    let mix = queries(&ais_gen, ais_gen.cycles - 1, 13);

    trace::set_recording(opts.trace);
    let (loaded, setup_s) = median_setup(opts, || set_up(opts));
    trace::set_recording(false);
    let loaded = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            ops.check_result(Err(e));
            return Outcome::broken(ops);
        }
    };

    // Pass 0, untimed: the reference answers, checked against the suites.
    let reference = pass(&mix, &loaded, 0, &mut ops, &mut Samples::default());
    check_against_suites(
        &mut ops,
        &mix,
        &reference,
        &loaded.ais.run_suites_only(ais_gen.cycles - 1),
        &loaded.modis.run_suites_only(13),
    );
    let digest = {
        let mut h = Fnv::default();
        for (answer, stats) in &reference {
            h.u64(*answer);
            digest_query_stats(&mut h, stats);
        }
        h
    };

    if !opts.trace {
        let query_ms = passes_for(opts.seconds, &mix, &loaded, opts, &mut ops, &reference);
        // Both stores' bytes over both arrays' user bytes.
        let stored = space_amp(loaded.ais.cluster(), loaded.live_user_bytes)
            + space_amp(loaded.modis.cluster(), loaded.live_user_bytes);
        return Outcome {
            ops,
            metrics: end_to_end(setup_s, mix.len() as u64, &query_ms, stored),
            digest,
            notes: vec![
                ("work unit", "queries (work_per_s = queries/s)".to_string()),
                ("operation", format!("one of the {} queries of the mix", mix.len())),
                ("passes", (query_ms.len() / mix.len()).to_string()),
                ("op_ms", query_ms.note()),
            ],
        };
    }

    let untraced = passes_for(opts.seconds / 2.0, &mix, &loaded, opts, &mut ops, &reference);
    trace::set_recording(true);
    let traced = passes_for(opts.seconds / 2.0, &mix, &loaded, opts, &mut ops, &reference);
    let recorded = trace::take();

    let mut metrics = layers::from_trace(&recorded);
    let mut spans: Vec<&str> = mix.iter().map(|q| q.span).collect();
    spans.dedup();
    for span in spans {
        metrics.insert(format!("{span}_ms"), median_or_zero(&recorded.durations_ms(span)));
    }
    // Pruning, summed over one pass: of the chunks a query's region
    // intersects, how many a zone map or dictionary refuted.
    let (mut visited, mut pruned, mut scanned) = (0u64, 0u64, 0u64);
    for (_, stats) in &reference {
        visited += stats.chunks_visited;
        pruned += stats.chunks_pruned;
        scanned += stats.bytes_scanned;
    }
    metrics.insert("query.chunks_visited".to_string(), visited as f64);
    metrics.insert("query.chunks_pruned".to_string(), pruned as f64);
    metrics
        .insert("query.pruned_share".to_string(), pruned as f64 / (visited + pruned).max(1) as f64);
    metrics.insert("query.bytes_scanned".to_string(), scanned as f64);
    metrics.insert(
        "query.sim_query_min".to_string(),
        reference.iter().map(|(_, s)| s.elapsed_secs).sum::<f64>() / 60.0,
    );
    let notes =
        layers::finish_traced(opts, "query_mix", &recorded, &mut metrics, &untraced, &traced);
    Outcome { ops, metrics, digest, notes }
}
