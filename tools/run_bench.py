#!/usr/bin/env python3
"""Run AMRI bench binaries and aggregate their --json records into one
trajectory file.

Each bench binary, given ``--json <path>`` (google-benchmark binaries) or
``json=<path>`` (scenario/figure binaries), emits a flat JSON array of
``{"bench": ..., "metric": ..., "value": ...}`` records.  This driver runs a
set of binaries, prefixes every record's bench name with the binary name
(``micro_index_ops/BM_BitAddress_ProbeExact/100000``), and writes a single
aggregate:

    {
      "schema": "amri-bench-v1",
      "date": "YYYY-MM-DD",
      "host": "...",
      "records": [ {"bench": ..., "metric": ..., "value": ...}, ... ]
    }

The default output name is ``BENCH_<date>.json`` in the current directory;
committing one of these per perf-relevant PR gives the repo a perf
trajectory that survives CI hardware churn (compare files from the same
host).  See docs/benchmarking.md.

Usage:
    tools/run_bench.py --build-dir build [--out BENCH.json]
        [--filter REGEX] [--min-time SEC] [--repetitions N] [bench ...]
    tools/run_bench.py --self-test
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

SCHEMA = "amri-bench-v1"

# Default bench set: the index hot-path microbench (the directory's raison
# d'etre), the assessment microbench (tuner hot path), the sharded-state
# microbench (probe churn / fan-out / migration across shard counts), the
# wall-pipeline microbench (end-to-end churn, virtual vs wall engine mode
# at equal batch sizes), the adversarial scenario matrix (every named
# scenario x guardrails off/on; migrations, suppressions, end-state probe
# cost), and the multi-query ablation (queries x shards x batch grid over
# shared states plus the shared-vs-independent peak-memory comparison).
DEFAULT_BENCHES = ["micro_index_ops", "micro_assessment", "micro_sharded_stem",
                   "micro_wall_pipeline", "adversarial_suite",
                   "ablation_multiquery"]

# Per-binary extra key=value args appended after the smoke-scale defaults
# (Config is last-wins, so these override).  adversarial_suite's headline
# numbers (migration-cut ratio) are calibrated at rate=80.
SCENARIO_EXTRA_ARGS = {"adversarial_suite": ["rate=80"],
                       # Smoke runs cap the query sweep; the committed
                       # trajectory raises it with --scenario-sim-seconds.
                       "ablation_multiquery": ["max_queries=3"]}

# google-benchmark encodes named args into the bench name ("BM_X/shards:4",
# "BM_Y/engine:1/batch:64").  Each matching arg is lifted into a same-named
# queryable record field.
_ARG_RES = [(field, re.compile(rf"/{field}:(\d+)(?:/|$)"))
            for field in ("queries", "shards", "batch", "engine")]


def is_gbench(bench_name: str) -> bool:
    """google-benchmark binaries take --flags; scenario binaries key=value."""
    return bench_name.startswith("micro_")


def bench_argv(binary: str, bench_name: str, json_path: str,
               args: argparse.Namespace) -> list:
    if is_gbench(bench_name):
        argv = [binary, f"--json={json_path}"]
        if args.filter:
            argv.append(f"--benchmark_filter={args.filter}")
        # NB: plain double — the installed google-benchmark rejects the
        # newer "0.05s" suffix form.
        argv.append(f"--benchmark_min_time={args.min_time}")
        if args.repetitions > 1:
            argv.append(f"--benchmark_repetitions={args.repetitions}")
            argv.append("--benchmark_enable_random_interleaving=true")
            argv.append("--benchmark_report_aggregates_only=true")
        return argv
    # Scenario binaries: smoke-scale run by default so the smoke job stays
    # fast; --scenario-sim-seconds raises the scale for committed
    # trajectory entries (docs/benchmarking.md).
    return ([binary, f"json={json_path}",
             f"sim_seconds={args.scenario_sim_seconds}", "rate=50"]
            + SCENARIO_EXTRA_ARGS.get(bench_name, []))


def load_records(json_path: str) -> list:
    with open(json_path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"{json_path}: expected a JSON array of records")
    for rec in records:
        for field in ("bench", "metric", "value"):
            if field not in rec:
                raise ValueError(f"{json_path}: record missing '{field}': "
                                 f"{rec}")
    return records


def prefix_records(records: list, bench_name: str) -> list:
    return [{**rec, "bench": f"{bench_name}/{rec['bench']}"}
            for rec in records]


def attach_shards(records: list) -> list:
    """Lift name-encoded bench arguments (query count, shard count, batch
    size and the engine mode) into queryable record fields, so trajectory
    tooling can compare configurations without name parsing."""
    out = []
    for rec in records:
        lifted = rec
        for field, rx in _ARG_RES:
            m = rx.search(rec.get("bench", ""))
            if m:
                lifted = {**lifted, field: int(m.group(1))}
        out.append(lifted)
    return out


def aggregate(records: list, date: str, host: str) -> dict:
    return {"schema": SCHEMA, "date": date, "host": host, "records": records}


def run_one(bench_name: str, args: argparse.Namespace) -> list:
    binary = os.path.join(args.build_dir, "bench", bench_name)
    if not os.path.exists(binary):
        raise FileNotFoundError(
            f"bench binary not found: {binary} (build the '{bench_name}' "
            f"target in {args.build_dir} first)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        argv = bench_argv(binary, bench_name, json_path, args)
        print(f"[run_bench] {' '.join(argv)}", file=sys.stderr)
        subprocess.run(argv, check=True, stdout=sys.stderr)
        return attach_shards(prefix_records(load_records(json_path),
                                            bench_name))
    finally:
        os.unlink(json_path)


def self_test() -> int:
    """Exercise the aggregation pipeline without any bench binaries."""
    failures = []

    def check(cond: bool, label: str) -> None:
        if not cond:
            failures.append(label)
            print(f"[self-test] FAIL: {label}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmpdir:
        # A fake bench emission, including a name that needs JSON escaping.
        raw = [
            {"bench": "BM_Probe/10000", "metric": "items_per_second",
             "value": 123456.5},
            {"bench": 'BM_"quoted"\\path', "metric": "real_time_ns",
             "value": 42.0},
        ]
        src = os.path.join(tmpdir, "one.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)

        records = prefix_records(load_records(src), "micro_index_ops")
        check(len(records) == 2, "record count preserved")
        check(records[0]["bench"] == "micro_index_ops/BM_Probe/10000",
              "bench name prefixed with binary name")
        check(records[1]["bench"].startswith("micro_index_ops/BM_\"quoted\""),
              "escaped bench names survive a load/prefix round trip")
        check(records[0]["value"] == 123456.5, "values preserved")

        # Shard-count extraction: "shards:N" bench args become a queryable
        # record field; records without the arg are left untouched.
        sharded_raw = [
            {"bench": "BM_ShardedStem_ProbeChurn/shards:4",
             "metric": "items_per_second", "value": 10.0},
            {"bench": "BM_ShardedStem_Migration/shards:16",
             "metric": "real_time_ns", "value": 20.0},
            {"bench": "BM_Probe/10000", "metric": "real_time_ns",
             "value": 30.0},
        ]
        sharded = attach_shards(
            prefix_records(sharded_raw, "micro_sharded_stem"))
        check(sharded[0].get("shards") == 4, "shards:4 arg lifted to field")
        check(sharded[1].get("shards") == 16, "multi-digit shard count lifted")
        check("shards" not in sharded[2], "non-sharded record untouched")
        check(sharded[0]["bench"]
              == "micro_sharded_stem/BM_ShardedStem_ProbeChurn/shards:4",
              "shard extraction preserves the prefixed bench name")

        # Batch-size extraction, alone and combined with a shard count
        # ("batch:N/shards:M" names, as in committed BENCH files from the
        # since-deleted batch-pipeline microbench).
        batched_raw = [
            {"bench": "BM_BatchPipeline_ProbeChurn/batch:64/shards:4",
             "metric": "items_per_second", "value": 40.0},
            {"bench": "BM_BatchPipeline_GroupedEnumeration/batch:256",
             "metric": "real_time_ns", "value": 50.0},
            {"bench": "BM_Probe/10000", "metric": "real_time_ns",
             "value": 60.0},
        ]
        batched = attach_shards(
            prefix_records(batched_raw, "micro_batch_pipeline"))
        check(batched[0].get("batch") == 64
              and batched[0].get("shards") == 4,
              "batch and shards both lifted from a combined name")
        check(batched[1].get("batch") == 256
              and "shards" not in batched[1],
              "batch-only name lifts batch without inventing shards")
        check("batch" not in batched[2], "non-batched record untouched")

        # Wall-pipeline axis: the micro_wall_pipeline churn sweep emits
        # "engine:E/batch:N" names; the engine mode becomes a field
        # alongside batch.
        wall_raw = [
            {"bench": "BM_WallPipeline_EngineChurn/engine:1/batch:64",
             "metric": "items_per_second", "value": 70.0},
        ]
        wall = attach_shards(prefix_records(wall_raw, "micro_wall_pipeline"))
        check(wall[0].get("engine") == 1 and wall[0].get("batch") == 64
              and "shards" not in wall[0],
              "engine and batch both lifted from a churn name")

        # Multi-query axis: the ablation_multiquery grid emits
        # "queries:Q/shards:S/batch:B" names; the comparison records carry
        # only the queries axis.
        mq_raw = [
            {"bench": "abl_multiquery/queries:3/shards:2/batch:8",
             "metric": "peak_memory_bytes", "value": 90.0},
            {"bench": "abl_multiquery/shared_vs_independent/queries:5",
             "metric": "shared_over_independent_memory", "value": 0.4},
        ]
        mq = attach_shards(prefix_records(mq_raw, "ablation_multiquery"))
        check(mq[0].get("queries") == 3 and mq[0].get("shards") == 2
              and mq[0].get("batch") == 8,
              "queries/shards/batch all lifted from a multi-query grid name")
        check(mq[1].get("queries") == 5 and "shards" not in mq[1],
              "shared-vs-independent name lifts only the queries axis")

        out = os.path.join(tmpdir, "BENCH_2000-01-01.json")
        agg = aggregate(records, "2000-01-01", "testhost")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(agg, fh, indent=1)
        with open(out, "r", encoding="utf-8") as fh:
            reread = json.load(fh)
        check(reread["schema"] == SCHEMA, "schema tag present")
        check(reread["date"] == "2000-01-01", "date preserved")
        check(reread["records"] == records, "records survive a round trip")

        # Malformed input must be rejected, not silently aggregated.
        bad = os.path.join(tmpdir, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('[{"bench": "x", "metric": "y"}]')  # no value
        try:
            load_records(bad)
            check(False, "missing-field record rejected")
        except ValueError:
            pass
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"not": "a list"}')
        try:
            load_records(bad)
            check(False, "non-array payload rejected")
        except ValueError:
            pass

    if failures:
        print(f"[self-test] {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("[self-test] OK", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benches", nargs="*", default=None,
                        help=f"bench targets (default: {DEFAULT_BENCHES})")
    parser.add_argument("--build-dir", default="build",
                        help="build tree containing bench/ binaries")
    parser.add_argument("--out", default=None,
                        help="aggregate output path "
                             "(default: BENCH_<date>.json)")
    parser.add_argument("--filter", default=None,
                        help="--benchmark_filter regex for gbench binaries")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="--benchmark_min_time seconds (plain double)")
    parser.add_argument("--scenario-sim-seconds", type=float, default=10,
                        help="sim_seconds passed to scenario (non-gbench) "
                             "binaries; raise for committed trajectory runs")
    parser.add_argument("--repetitions", type=int, default=1,
                        help="gbench repetitions (>1 adds interleaving and "
                             "aggregate-only reporting)")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise the aggregation pipeline and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    benches = args.benches or DEFAULT_BENCHES
    date = datetime.date.today().isoformat()
    out = args.out or f"BENCH_{date}.json"

    records = []
    for bench_name in benches:
        records.extend(run_one(bench_name, args))

    agg = aggregate(records, date, platform.node())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(agg, fh, indent=1)
        fh.write("\n")
    print(f"[run_bench] wrote {len(records)} records to {out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
