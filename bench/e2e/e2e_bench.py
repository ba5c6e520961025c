#!/usr/bin/env python3
"""End-to-end pipeline benchmark driver.

Runs the e2e_pipeline runner (one workload and run kind per process),
checks the runs against each other, and turns them into the metrics that
BENCHMARK.json names. README.md next to this file defines the workloads,
the metrics and the procedure.

  e2e_bench.py --out A.json                 all workloads, full invocation
  e2e_bench.py --compare A.json B.json      verdict per workload and metric
  e2e_bench.py --smoke                      every workload and run kind, small
  e2e_bench.py --self-test                  driver logic on synthetic records
  e2e_bench.py --workload W --seed N --seconds S --trace 0|1
                                            one workload; the last stdout line
                                            is a JSON object of its metrics

The runner is built from source into --build-dir (default
.bench_build/e2e at the repository root) on first use.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_BUILD = ROOT / ".bench_build" / "e2e"

WORKLOADS = ["fig7_drift", "churn_wall", "hotset_sharded", "multiquery_q8"]
SMOKE_SCALE = 0.02
RUN_TIMEOUT_S = 170
# Full invocation order: run kinds interleave so slow drift of the host
# spreads over every kind, and workloads interleave round-robin per slot.
FULL_SLOTS = ["plain", "latency", "plain", "profile", "plain", "span",
              "plain", "plain"]
SMOKE_SLOTS = ["plain", "latency", "profile", "span"]
MIN_PROFILE_COVERAGE = 0.95
MIN_P99_RESULTS = 1000
CHECK_FIELDS = ["outputs", "arrivals", "charged_us", "migrations"]
TOP_DELTAS = 10  # per-layer deltas shown per workload by --compare
WALL_E2E = {"arrivals_per_s", "setup_s"}
# A --workload invocation runs at least this many rounds, each on its own
# inputs, with a latency run in each: virtual metrics average over
# independent inputs. Later rounds add plain runs only, for the wall
# medians.
MIN_ROUNDS = 4
# Digest of each workload's seed-1 inputs, by scale: a change to a
# src/workload generator (or to the churn generator here) fails the gate
# instead of silently changing what the benchmark measures.
PINNED_DIGESTS = {
    "1.0": {
        "fig7_drift": "9e2f7363595b2943",
        "churn_wall": "7262817d426a2bb8",
        "hotset_sharded": "70bce909ced4f7ce",
        "multiquery_q8": "c819c36c3a7a8acd",
    },
    "0.02": {
        "fig7_drift": "f0decea51e28af9b",
        "churn_wall": "fbd89804e976992e",
        "hotset_sharded": "4f74c744ac0ca83c",
        "multiquery_q8": "0d4eb66a54430c38",
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layer


# --- statistics ------------------------------------------------------------

def median(values):
    return statistics.median(values)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# --- building and running --------------------------------------------------

def ensure_binary(build_dir):
    """Configure and build the runner; a build dir without a CMake cache
    that already holds the binary (built by an enclosing project) is used
    as is."""
    build_dir = Path(build_dir).resolve()
    exe = build_dir / "e2e_pipeline"
    if not (build_dir / "CMakeCache.txt").exists():
        if exe.exists():
            return exe
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=600)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "e2e_pipeline", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=800)
    return exe


def run_runner(exe, workload, kind, seed, scale):
    """One runner process; returns its record, or None when it failed."""
    cmd = [str(exe), "--workload", workload, "--kind", kind,
           "--seed", str(seed), "--scale", repr(scale)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}/{kind}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}/{kind}: exit {proc.returncode}: "
            f"{proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_digest_failures(exe, workloads, scale):
    pins = PINNED_DIGESTS.get(repr(scale))
    if pins is None:
        return []
    failures = []
    for w in workloads:
        rec = run_runner(exe, w, "digest", 1, scale)
        got = rec["digest"] if rec else "<no record>"
        if got != pins[w]:
            failures.append(f"{w}: seed-1 input digest {got} != pinned "
                            f"{pins[w]} (a workload generator changed)")
    return failures


# --- aggregation and the correctness gate ----------------------------------

def aggregate(records, e2e_spec, layer_spec):
    """Fold one workload's run records into its metrics.

    Wall-clock end-to-end metrics are medians over the plain runs; virtual
    ones are means over the plain runs (identical for runs of one seed,
    which the gate checks), result latency over the latency runs.
    Per-layer values come from the runs of one seed, each from the kind
    that measures it; the tracing overheads compare the profile and span
    runs with that seed's plain runs."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    plain = by_kind["plain"]
    out = {"digests": sorted({r["digest"] for r in records}), "e2e": {},
           "layer": {}}
    for name, m in e2e_spec.items():
        src = ([r for r in plain if name in r["e2e"]] or
               [r for r in by_kind.get("latency", []) if name in r["e2e"]])
        if not src:
            continue
        runs = [r["e2e"][name] for r in src]
        value = median(runs) if name in WALL_E2E else statistics.fmean(runs)
        out["e2e"][name] = {"value": value, "unit": m["unit"],
                            "min": min(runs), "max": max(runs),
                            "n": len(runs), "runs": runs}
    traced = by_kind.get("profile", []) + by_kind.get("span", [])
    seed = traced[0]["seed"] if traced else plain[0]["seed"]
    same_seed = [r for r in records if r["seed"] == seed]
    layer = {}
    for kind in ("plain", "profile", "span"):
        for r in [r for r in same_seed if r["kind"] == kind][:1]:
            layer.update(r["layer"])
    plain_run_s = median([r["run_s"] for r in same_seed
                          if r["kind"] == "plain"])
    for kind, name in (("profile", "trace.profile_overhead"),
                       ("span", "trace.span_overhead")):
        for r in [r for r in same_seed if r["kind"] == kind][:1]:
            layer[name] = r["run_s"] / plain_run_s - 1.0
    for name, value in layer.items():
        unit = layer_spec[name]["unit"] if name in layer_spec else "?"
        out["layer"][name] = {"value": value, "unit": unit}
    return out


def gate(workload, records, smoke=False):
    """Correctness failures of one workload's runs (empty = pass). Runs of
    one seed must agree: plain runs exactly on CHECK_FIELDS, every other
    kind on outputs and inputs."""
    failures = []
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], []).append(r)
    for seed, runs in sorted(by_seed.items()):
        plain = [r for r in runs if r["kind"] == "plain"]
        if not plain:
            failures.append(f"{workload}: seed {seed} has no plain run")
            continue
        ref = plain[0]
        for r in plain[1:]:
            for f in CHECK_FIELDS:
                if r["check"][f] != ref["check"][f]:
                    failures.append(f"{workload}: seed {seed} plain runs "
                                    f"disagree on {f} ({r['check'][f]} vs "
                                    f"{ref['check'][f]})")
        for r in runs:
            if r["check"]["outputs"] != ref["check"]["outputs"]:
                failures.append(f"{workload}: seed {seed} {r['kind']} run "
                                f"outputs {r['check']['outputs']} != plain "
                                f"{ref['check']['outputs']}")
            if r["digest"] != ref["digest"]:
                failures.append(f"{workload}: seed {seed} {r['kind']} run "
                                f"saw other inputs")
    if smoke:
        # Smoke runs are too short for coverage and p99 to mean anything,
        # and may come from any build.
        return failures
    if any(not r["build"]["ndebug"] or r["build"]["sanitized"]
           for r in records):
        failures.append(f"{workload}: runner not built with NDEBUG and "
                        f"without sanitizers")
    for r in records:
        if r["kind"] == "profile":
            cov = r["layer"]["trace.profile_coverage"]
            if cov < MIN_PROFILE_COVERAGE:
                failures.append(f"{workload}: profile coverage {cov:.3f} < "
                                f"{MIN_PROFILE_COVERAGE}")
        if (r["kind"] == "latency" and
                r["e2e"]["latency_results"] < MIN_P99_RESULTS):
            failures.append(f"{workload}: latency p99 rests on "
                            f"{r['e2e']['latency_results']} < "
                            f"{MIN_P99_RESULTS} results")
    return failures


def missing_metrics(workload, res, names):
    return [f"{workload}: {n} not measured" for n in names
            if n not in res["e2e"] and n not in res["layer"]]


# --- reports ----------------------------------------------------------------

def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def print_result(result):
    for w, res in result["workloads"].items():
        print(f"== {w}  (inputs {', '.join(res['digests'])})")
        for name, m in res["e2e"].items():
            extra = (f"  [min {fmt(m['min'])} max {fmt(m['max'])} n {m['n']}]"
                     if m["n"] > 1 else "")
            print(f"  {name:<28} {fmt(m['value']):>16} {m['unit']}{extra}")
        for name, m in sorted(res["layer"].items()):
            print(f"  {name:<36} {fmt(m['value']):>16} {m['unit']}")


def host_block(records, seed):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    build = records[0]["build"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": read(f"{cache}/index2/size"),
        "l3": read(f"{cache}/index3/size"),
        "platform": platform.platform(),
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "fanout_threads": max(r["fanout_threads"] for r in records),
        "seed": seed,
        "commit": commit,
    }


# --- modes -----------------------------------------------------------------

def run_full(args, scale, slots, smoke):
    e2e_spec, layer_spec = load_spec()
    exe = ensure_binary(args.build_dir)
    failures = pinned_digest_failures(exe, WORKLOADS, scale)
    records = {w: [] for w in WORKLOADS}
    started = time.monotonic()
    if not smoke:
        # The first run after a pause reads slow (cold caches, idle CPU);
        # one discarded plain run per workload keeps it out of the medians.
        for w in WORKLOADS:
            run_runner(exe, w, "plain", args.seed, scale)
    for slot in slots:
        for w in WORKLOADS:
            rec = run_runner(exe, w, slot, args.seed, scale)
            if rec is None:
                failures.append(f"{w}: {slot} run failed")
                continue
            records[w].append(rec)
            log(f"[{time.monotonic() - started:6.1f}s] {w} {slot}: "
                f"run {rec['run_s']:.2f} s")
    result = {"schema": "e2e_bench/1", "scale": scale, "workloads": {}}
    for w in WORKLOADS:
        failures += gate(w, records[w], smoke)
        if any(r["kind"] == "plain" for r in records[w]):
            res = aggregate(records[w], e2e_spec, layer_spec)
            failures += missing_metrics(w, res, [*e2e_spec, *layer_spec])
            result["workloads"][w] = res
    all_records = [r for rs in records.values() for r in rs]
    if all_records:
        result["host"] = host_block(all_records, args.seed)
    result["correct"] = not failures
    result["failures"] = failures
    print_result(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        log(f"wrote {args.out}")
    for f in failures:
        log(f"GATE: {f}")
    log(f"total {time.monotonic() - started:.1f} s; "
        f"gate {'passed' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def run_contract(args):
    """One workload measured for about --seconds, in rounds: round i runs
    on inputs of seed args.seed * 1000 + i, a plain run plus (--trace 0,
    first MIN_ROUNDS rounds) a latency run, until the plain runs add up
    to --seconds. --trace 1 adds a profile and a span run on the first
    round's inputs."""
    e2e_spec, layer_spec = load_spec()
    exe = ensure_binary(args.build_dir)
    failures = pinned_digest_failures(exe, [args.workload], 1.0)
    records, attempted, failed = [], 0, 0

    def run(kind, seed):
        nonlocal attempted, failed
        attempted += 1
        rec = run_runner(exe, args.workload, kind, seed, 1.0)
        if rec is None:
            failed += 1
        else:
            records.append(rec)
        return rec

    measured, rounds = 0.0, 0
    while rounds < MIN_ROUNDS or measured < args.seconds:
        seed = args.seed * 1000 + rounds
        rounds += 1
        rec = run("plain", seed)
        if rec is None:
            break
        measured += rec["run_s"]
        if args.trace == 0 and rounds <= MIN_ROUNDS:
            run("latency", seed)
    if args.trace == 1:
        for kind in ("profile", "span"):
            run(kind, args.seed * 1000)
    failures += gate(args.workload, records)
    if failed:
        failures.append(f"{args.workload}: {failed} run(s) failed")
    wanted = e2e_spec if args.trace == 0 else layer_spec
    metrics = {}
    if not failures:
        res = aggregate(records, e2e_spec, layer_spec)
        failures += missing_metrics(args.workload, res, wanted)
        values = {**res["e2e"], **res["layer"]}
        metrics = {name: {"value": values[name]["value"], "unit": m["unit"]}
                   for name, m in wanted.items() if name in values}
    for f in failures:
        log(f"GATE: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def compare(old, new, e2e_spec):
    """Rows of (workload, e2e verdicts, ranked per-layer deltas). Raises
    ValueError when the files are not comparable."""
    if old["host"]["nproc"] != new["host"]["nproc"]:
        raise ValueError(f"nproc differs: {old['host']['nproc']} vs "
                         f"{new['host']['nproc']}")
    rows = []
    for w, o in old["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            raise ValueError(f"{w} missing from the new file")
        if o["digests"] != n["digests"]:
            raise ValueError(f"{w}: input digests differ ({o['digests']} vs "
                             f"{n['digests']})")
        verdicts = {}
        for name, spec in e2e_spec.items():
            if name not in o["e2e"] or name not in n["e2e"]:
                continue
            verdicts[name] = verdict(o["e2e"][name], n["e2e"][name], spec)
        deltas = []
        for name, om in o["layer"].items():
            if name not in n["layer"]:
                continue
            a, b = om["value"], n["layer"][name]["value"]
            rel = (b - a) / abs(a) if a else (math.inf if b else 0.0)
            deltas.append((name, a, b, rel))
        deltas.sort(key=lambda d: -abs(d[3]))
        rows.append((w, verdicts, deltas))
    return rows


def verdict(om, nm, spec):
    """better | unchanged | worse | unresolved, with the relative change
    (positive = better)."""
    a, b, bound = om["value"], nm["value"], spec["bound"]
    lower = spec["better"] == "lower"
    gain = ((a - b) if lower else (b - a)) / abs(a) if a else 0.0
    old_runs, new_runs = om.get("runs", [a]), nm.get("runs", [b])
    if lower:
        all_better = max(new_runs) < min(old_runs)
    else:
        all_better = min(new_runs) > max(old_runs)
    if spec["name"] == "completed_share" and a == 1.0 and b < 1.0:
        return "worse", gain
    if spread(old_runs) > bound or spread(new_runs) > bound:
        return ("better" if all_better else "unresolved"), gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "unchanged", gain


def run_compare(paths):
    e2e_spec, _ = load_spec()
    old, new = (json.loads(Path(p).read_text()) for p in paths)
    try:
        rows = compare(old, new, e2e_spec)
    except ValueError as e:
        log(f"refusing to compare: {e}")
        return 2
    worse = False
    for w, verdicts, deltas in rows:
        cells = []
        for name, (v, gain) in verdicts.items():
            worse |= v == "worse"
            cells.append(f"{name}={v}({gain:+.2%})")
        print(f"{w}: " + "  ".join(cells))
        for name, a, b, rel in deltas[:TOP_DELTAS]:
            print(f"    {name:<36} {fmt(a):>14} -> {fmt(b):<14} {rel:+.2%}")
    return 1 if worse else 0


# --- self-test -------------------------------------------------------------

def self_test():
    e2e_spec = {
        "arrivals_per_s": {"name": "arrivals_per_s", "unit": "1/s",
                           "better": "higher", "bound": 0.10},
        "setup_s": {"name": "setup_s", "unit": "s", "better": "lower",
                    "bound": 0.25},
        "outputs": {"name": "outputs", "unit": "count", "better": "higher",
                    "bound": 0.02},
        "completed_share": {"name": "completed_share", "unit": "share",
                            "better": "higher", "bound": 0.01},
    }
    layer_spec = {"stem.probe_ms": {"unit": "ms"},
                  "trace.profile_overhead": {"unit": "share"},
                  "trace.profile_coverage": {"unit": "share"}}
    build = {"ndebug": True, "sanitized": False, "compiler": "c",
             "build_type": "Release"}

    def rec(kind, rate=100.0, outputs=50, run_s=2.0, seed=1, **layer):
        return {"kind": kind, "seed": seed, "digest": f"d{seed}",
                "run_s": run_s, "build": build,
                "fanout_threads": 0,
                "check": {"outputs": outputs, "arrivals": 10,
                          "charged_us": 1.5, "migrations": 0},
                "e2e": {"arrivals_per_s": rate, "setup_s": 0.5,
                        "outputs": outputs, "completed_share": 1.0},
                "layer": layer}

    runs = [rec("plain", rate=r) for r in (90.0, 100.0, 130.0, 95.0, 110.0)]
    runs.append(rec("profile", run_s=3.0, **{"stem.probe_ms": 7.0,
                                              "trace.profile_coverage": 0.97}))
    res = aggregate(runs, e2e_spec, layer_spec)
    rate = res["e2e"]["arrivals_per_s"]
    assert rate["value"] == 100.0 and rate["n"] == 5, rate
    assert (rate["min"], rate["max"]) == (90.0, 130.0), rate
    assert res["e2e"]["outputs"]["value"] == 50
    assert res["layer"]["stem.probe_ms"]["value"] == 7.0
    assert abs(res["layer"]["trace.profile_overhead"]["value"] - 0.5) < 1e-12
    assert gate("w", runs) == []

    bad = runs + [rec("plain", outputs=51)]
    assert any("disagree on outputs" in f for f in gate("w", bad))
    low_cov = [rec("plain"), rec("profile", **{"trace.profile_coverage": 0.5})]
    assert any("coverage" in f for f in gate("w", low_cov))
    debug = [rec("plain")]
    debug[0]["build"] = dict(build, ndebug=False)
    assert gate("w", debug) and gate("w", debug, smoke=True) == []
    # Rounds on other inputs may differ; virtual metrics average over them.
    rounds = [rec("plain", outputs=40, seed=1000),
              rec("plain", outputs=60, seed=1001)]
    assert gate("w", rounds) == []
    assert aggregate(rounds, e2e_spec,
                     layer_spec)["e2e"]["outputs"]["value"] == 50
    other_inputs = [rec("plain"), dict(rec("span"), digest="x")]
    assert any("saw other inputs" in f for f in gate("w", other_inputs))

    assert median([3, 1, 2]) == 2 and spread([90, 100, 110]) == 0.2
    spec = e2e_spec["arrivals_per_s"]

    def m(values):
        return {"value": median(values), "runs": values}

    assert verdict(m([100, 101, 99]), m([120, 121, 119]), spec)[0] == "better"
    assert verdict(m([100, 101, 99]), m([80, 81, 79]), spec)[0] == "worse"
    assert verdict(m([100, 101, 99]), m([95, 96, 94]), spec)[0] == "unchanged"
    assert verdict(m([100, 130, 80]), m([95, 96, 94]), spec)[0] == "unresolved"
    assert verdict(m([100, 101]), m([200, 300]), spec)[0] == "better"
    lower = e2e_spec["setup_s"]
    assert verdict(m([1.0]), m([1.5]), lower)[0] == "worse"
    share = e2e_spec["completed_share"]
    assert verdict(m([1.0]), m([0.999]), share)[0] == "worse"

    def result(digest, nproc=4, value=100.0):
        return {"host": {"nproc": nproc},
                "workloads": {"w": {"digests": [digest],
                                    "e2e": {"arrivals_per_s": m([value])},
                                    "layer": {"a": {"value": 1.0},
                                              "b": {"value": 2.0}}}}}

    new = result("d", value=50.0)
    new["workloads"]["w"]["layer"] = {"a": {"value": 1.1}, "b": {"value": 4.0}}
    (_, verdicts, deltas), = compare(result("d"), new, e2e_spec)
    assert verdicts["arrivals_per_s"][0] == "worse"
    assert [d[0] for d in deltas] == ["b", "a"], deltas
    for other in (result("x"), result("d", nproc=8)):
        try:
            compare(result("d"), other, e2e_spec)
        except ValueError:
            continue
        raise AssertionError("compare accepted incomparable files")
    print("e2e_bench self-test: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--build-dir", default=str(DEFAULT_BUILD))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return run_compare(args.compare)
    try:
        if args.workload:
            return run_contract(args)
        if args.smoke:
            return run_full(args, SMOKE_SCALE, SMOKE_SLOTS, smoke=True)
        return run_full(args, 1.0, FULL_SLOTS, smoke=False)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"e2e_bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
