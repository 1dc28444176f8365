//! Golden tests for the observability exporters and the ensemble
//! metrics-folding determinism contract.
//!
//! The JSON snapshot and Prometheus exposition are consumed by machines
//! (CI schema validation, scrapers), so their exact bytes are part of
//! the interface: key order, string escaping, number formatting, and
//! histogram bucket boundaries are all pinned here against full-document
//! golden strings. The final proptest pins the tentpole determinism
//! claim end-to-end: folding per-replica registries through
//! `ReplicaLedger`/`EnsembleReport::metrics` yields byte-identical
//! snapshots at every worker-thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::obs::json;
use sachi::prelude::*;

fn sample_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.counter_add("sram_rbl_discharges", 3);
    reg.counter_add("l1_hits", 10);
    reg.gauge_set("l1_hit_rate", 0.5);
    reg.gauge_set("solver_energy", -24.0);
    reg.observe("round_cycles", 1);
    reg.observe("round_cycles", 4);
    reg.observe("round_cycles", 5);
    reg
}

fn sample_spans() -> Vec<PhaseSpan> {
    vec![
        PhaseSpan {
            phase: SolvePhase::Upload,
            sweep: 0,
            round: 0,
            start: 0,
            end: 128,
            events: 1,
        },
        PhaseSpan {
            phase: SolvePhase::HCompute,
            sweep: 2,
            round: 1,
            start: 128,
            end: 160,
            events: 16,
        },
    ]
}

#[test]
fn json_snapshot_is_golden() {
    // Keys emit in sorted (BTreeMap) order regardless of insertion
    // order; integral gauges keep a trailing `.0`; histogram buckets are
    // non-cumulative with string `le` bounds and a closing `+Inf`.
    let expected = concat!(
        "{\n",
        "  \"schema\": \"sachi.metrics.v1\",\n",
        "  \"counters\": {\n",
        "    \"l1_hits\": 10,\n",
        "    \"sram_rbl_discharges\": 3\n",
        "  },\n",
        "  \"gauges\": {\n",
        "    \"l1_hit_rate\": 0.5,\n",
        "    \"solver_energy\": -24.0\n",
        "  },\n",
        "  \"histograms\": {\n",
        "    \"round_cycles\": {\"count\":3,\"sum\":10,\"buckets\":[",
        "{\"le\":\"1\",\"count\":1},{\"le\":\"4\",\"count\":1},",
        "{\"le\":\"8\",\"count\":1},{\"le\":\"+Inf\",\"count\":0}]}\n",
        "  },\n",
        "  \"spans\": [\n",
        "    {\"phase\":\"upload\",\"sweep\":0,\"round\":0,\"start\":0,\"end\":128,\"events\":1},\n",
        "    {\"phase\":\"h_compute\",\"sweep\":2,\"round\":1,\"start\":128,\"end\":160,\"events\":16}\n",
        "  ]\n",
        "}\n",
    );
    let doc = write_snapshot(&sample_registry(), &sample_spans());
    assert_eq!(doc, expected);
    validate_snapshot(&doc).expect("golden snapshot validates");
}

#[test]
fn empty_registry_snapshot_is_golden() {
    // Empty sections collapse to `{}` and the spans member is omitted
    // entirely, not emitted as `[]`.
    let expected = concat!(
        "{\n",
        "  \"schema\": \"sachi.metrics.v1\",\n",
        "  \"counters\": {},\n",
        "  \"gauges\": {},\n",
        "  \"histograms\": {}\n",
        "}\n",
    );
    let doc = write_snapshot(&MetricsRegistry::new(), &[]);
    assert_eq!(doc, expected);
    validate_snapshot(&doc).expect("empty snapshot validates");
    let root = json::parse(&doc).expect("golden parses");
    assert!(root.get("spans").is_none(), "no spans member when empty");
}

#[test]
fn json_names_escape_and_round_trip() {
    // Hostile metric names must escape per RFC 8259 and survive a parse
    // round-trip unchanged.
    let hostile = "he said \"1\n2\"\t\\done";
    let mut reg = MetricsRegistry::new();
    reg.counter_add(hostile, 7);
    reg.gauge_set("tab\there", 1.25);
    let doc = write_snapshot(&reg, &[]);
    validate_snapshot(&doc).expect("escaped snapshot validates");
    let root = json::parse(&doc).expect("escaped snapshot parses");
    let counters = root.get("counters").expect("counters object");
    assert_eq!(
        counters.get(hostile).and_then(JsonValue::as_num),
        Some(7.0),
        "hostile counter name round-trips through escape + parse"
    );
    let gauges = root.get("gauges").expect("gauges object");
    assert_eq!(
        gauges.get("tab\there").and_then(JsonValue::as_num),
        Some(1.25)
    );
}

#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    // Bucket k holds `2^(k-1) < v <= 2^k` (bucket 0 takes 0 and 1), so
    // boundary observations pin exactly which bucket every exporter
    // reports them in.
    let mut reg = MetricsRegistry::new();
    let values: [u64; 7] = [0, 1, 2, 3, 4, (1 << 62) + 1, (1 << 63) + 1];
    for v in values {
        reg.observe("b", v);
    }

    // JSON: non-cumulative counts, string bounds, `+Inf` overflow.
    let doc = write_snapshot(&reg, &[]);
    let root = json::parse(&doc).expect("snapshot parses");
    let buckets: Vec<(String, u64)> = root
        .get("histograms")
        .and_then(|h| h.get("b"))
        .and_then(|b| b.get("buckets"))
        .and_then(JsonValue::as_arr)
        .expect("bucket array")
        .iter()
        .map(|b| {
            (
                b.get("le")
                    .and_then(JsonValue::as_str)
                    .expect("le")
                    .to_string(),
                b.get("count").and_then(JsonValue::as_num).expect("count") as u64,
            )
        })
        .collect();
    let expect: Vec<(String, u64)> = [
        ("1", 2u64),                // 0 and 1
        ("2", 1),                   // 2
        ("4", 2),                   // 3 and 4
        ("9223372036854775808", 1), // 2^62 + 1 lands in (2^62, 2^63]
        ("+Inf", 1),                // 2^63 + 1 overflows every finite bucket
    ]
    .iter()
    .map(|(le, c)| (le.to_string(), *c))
    .collect();
    assert_eq!(buckets, expect);

    // Prometheus: the same boundaries, cumulative.
    let prom = write_exposition(&reg);
    validate_exposition(&prom).expect("exposition parses");
    assert!(prom.contains("sachi_b_bucket{le=\"1\"} 2\n"));
    assert!(prom.contains("sachi_b_bucket{le=\"2\"} 3\n"));
    assert!(prom.contains("sachi_b_bucket{le=\"4\"} 5\n"));
    assert!(prom.contains("sachi_b_bucket{le=\"9223372036854775808\"} 6\n"));
    assert!(prom.contains("sachi_b_bucket{le=\"+Inf\"} 7\n"));
    assert!(prom.contains("sachi_b_count 7\n"));
}

#[test]
fn prom_exposition_is_golden() {
    let expected = concat!(
        "# TYPE sachi_l1_hits counter\n",
        "sachi_l1_hits 10\n",
        "# TYPE sachi_sram_rbl_discharges counter\n",
        "sachi_sram_rbl_discharges 3\n",
        "# TYPE sachi_l1_hit_rate gauge\n",
        "sachi_l1_hit_rate 0.5\n",
        "# TYPE sachi_solver_energy gauge\n",
        "sachi_solver_energy -24\n",
        "# TYPE sachi_round_cycles histogram\n",
        "sachi_round_cycles_bucket{le=\"1\"} 1\n",
        "sachi_round_cycles_bucket{le=\"4\"} 2\n",
        "sachi_round_cycles_bucket{le=\"8\"} 3\n",
        "sachi_round_cycles_bucket{le=\"+Inf\"} 3\n",
        "sachi_round_cycles_sum 10\n",
        "sachi_round_cycles_count 3\n",
    );
    let doc = write_exposition(&sample_registry());
    assert_eq!(doc, expected);
    validate_exposition(&doc).expect("golden exposition parses");
}

/// A small frustrated instance (mixed-sign king graph) so annealing
/// bookkeeping — accepts, uphill moves, spin-copy writebacks — is live.
fn frustrated_graph(rows: usize, cols: usize, salt: u64) -> IsingGraph {
    let mut k = salt;
    topology::king(rows, cols, |i, j| {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((k >> 33) % 11) as i32 - 5 + (i as i32 - j as i32) % 2
    })
    .expect("king graph construction")
}

/// Runs a SACHI-machine ensemble the way the CLI does (ledger folding
/// in replica order) and returns the folded registry plus the best
/// replica's phase spans.
fn solve_metrics(
    threads: usize,
    replicas: usize,
    salt: u64,
    master: u64,
) -> (MetricsRegistry, Vec<PhaseSpan>) {
    let graph = frustrated_graph(4, 4, salt);
    let mut rng = StdRng::seed_from_u64(salt ^ 0xC0DE);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(60);
    let config = SachiConfig::new(DesignKind::N3).with_phase_trace();
    let ledger = ReplicaLedger::new(replicas);
    let best_of =
        EnsembleRunner::new(replicas)
            .with_threads(threads)
            .run(&graph, &init, &opts, |k| {
                ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
            });
    let ensemble = ledger.finish();
    let mut reg = ensemble.metrics();
    for r in &best_of.replicas {
        r.export_metrics(&mut reg);
    }
    let spans = ensemble.reports[best_of.best_index].phase_spans.clone();
    (reg, spans)
}

#[test]
fn solve_snapshot_covers_every_subsystem() {
    // The snapshot `sachi solve --metrics json` prints is the job's own
    // registry, `JobOutcome::metrics`, the one the daemon harvests per
    // job. Alone, it must pass the strict solve-schema validation: every
    // required counter prefix (sram_, l1_, dram_, machine_, solver_,
    // recovery_) present, structure well-formed, spans recorded.
    let spec = JobSpec {
        cop: CopKind::MolecularDynamics,
        size: 64,
        restarts: 2,
        ..JobSpec::default()
    };
    let plan = JobPlan::from_spec(&spec)
        .expect("a valid job")
        .with_phase_trace();
    let outcome = plan.run(2);
    let reg = outcome.metrics();
    let spans = &outcome.report.reports[outcome.best.best_index].phase_spans;

    let doc = write_snapshot(&reg, spans);
    json::validate_solve_snapshot(&doc).expect("solve snapshot covers every subsystem");
    validate_exposition(&write_exposition(&reg)).expect("prom exposition of same registry");
    // The l1_ series count what the compute array did: one load per
    // replica for a problem that fits it.
    assert_eq!(reg.counter("l1_round_loads"), 2);
    assert!(reg.counter("l1_fill_bits") > 0);

    assert!(!spans.is_empty(), "phase tracing records spans");
    assert_eq!(
        spans[0].phase,
        SolvePhase::Upload,
        "trace starts with upload"
    );
    assert!(
        spans.iter().any(|s| s.phase.is_round_child()),
        "trace contains round children"
    );
}

/// A tempered rung's report merges one solve per exchange segment; its
/// phase trace must read as one timeline: top-level spans ordered by
/// start and sweep, children inside their round, nothing past
/// `total_cycles` — and the solve-schema validator agrees.
#[test]
fn tempered_report_spans_form_one_ordered_timeline() {
    let graph = frustrated_graph(4, 4, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 9)
        .with_max_sweeps(40)
        .with_tempering(TemperingOptions::for_graph(LadderKind::Adaptive, &graph, 3));
    // A small compute array forces multi-round sweeps with prefetches.
    let hierarchy = CacheHierarchy {
        compute: CacheGeometry::new(1, 4, 64, 1),
        storage: CacheGeometry::new(1, 2, 64, 2),
    };
    let config = SachiConfig::new(DesignKind::N2)
        .with_hierarchy(hierarchy)
        .with_phase_trace();
    let ledger = ReplicaLedger::new(3);
    let _ = EnsembleRunner::new(3)
        .with_threads(2)
        .run(&graph, &init, &opts, |k| {
            ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
        });
    let ensemble = ledger.finish();
    for (r, report) in ensemble.reports.iter().enumerate() {
        let spans = &report.phase_spans;
        let uploads = spans
            .iter()
            .filter(|s| s.phase == SolvePhase::Upload)
            .count();
        assert!(uploads > 1, "rung {r}: one upload per segment");
        let top: Vec<&PhaseSpan> = spans.iter().filter(|s| !s.phase.is_round_child()).collect();
        for pair in top.windows(2) {
            assert!(
                pair[1].start >= pair[0].start && pair[1].sweep >= pair[0].sweep,
                "rung {r}: {:?} steps back from {:?}",
                pair[1],
                pair[0]
            );
        }
        let last_sweep = spans.iter().map(|s| s.sweep).max().unwrap_or(0);
        assert!(
            last_sweep + 1 >= report.sweeps,
            "rung {r}: sweep labels run on"
        );
        for s in spans {
            assert!(
                s.end <= report.total_cycles.get(),
                "rung {r}: {s:?} ends past total_cycles {}",
                report.total_cycles.get()
            );
        }
        let mut reg = MetricsRegistry::new();
        report.export_metrics(&mut reg);
        reg.counter_add("l1_x", 0);
        reg.counter_add("solver_x", 0);
        json::validate_solve_snapshot(&write_snapshot(&reg, spans))
            .unwrap_or_else(|e| panic!("rung {r}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism claim, end to end: per-replica metric
    /// registries folded through `ReplicaLedger` / `EnsembleReport::
    /// metrics` compare equal — and serialize byte-identically — at
    /// every worker-thread count, so `--threads` is unobservable in
    /// `--metrics` output.
    #[test]
    fn metrics_fold_is_thread_count_independent(
        salt in 0u64..200,
        master in 0u64..200,
        replicas in 2usize..5,
    ) {
        let (reference, ref_spans) = solve_metrics(1, replicas, salt, master);
        for threads in [2usize, 8] {
            let (got, spans) = solve_metrics(threads, replicas, salt, master);
            prop_assert_eq!(&got, &reference, "registry at threads = {}", threads);
            prop_assert_eq!(
                write_snapshot(&got, &spans),
                write_snapshot(&reference, &ref_spans),
                "snapshot bytes at threads = {}",
                threads
            );
        }
    }
}
