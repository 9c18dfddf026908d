#!/usr/bin/env python3
"""Fig 13 campaign benchmark: build, run one workload, check, report.

    python3 fig13bench/run.py --workload W --seed N --seconds S --trace 0|1

Builds fig13_campaign_bench (and the model library from ../src) into
.bench_build/fig13bench with an optimized build, runs it, checks every
campaign's digest and outcome tallies against reference.json, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones.  `attempted` counts chips; any mismatch or crash fails them all.

    python3 fig13bench/run.py --record [--workload W]
        re-records reference.json (after a deliberate model change)
    python3 fig13bench/run.py --self-test
        shows the output check passes on a real run and trips on a
        perturbed reference

See fig13bench/README.md.
"""

import argparse
import copy
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fig13bench")
RUNS = os.path.join(ROOT, ".bench_build", "fig13bench-runs")
BINARY = os.path.join(BUILD, "fig13_campaign_bench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("fig13_fuzzy", "fig13_exh_suite", "fig13_sharded")

END_TO_END_UNITS = {
    "chips_per_s": "chips/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "good_share": "ratio",
    "fc_fmax_err_mhz": "MHz",
    "fc_vdd_err_mv": "mV",
}

PER_LAYER_UNITS = {
    "variation.manufacture_s": "s",
    "variation.chips": "count",
    "timing.model_build_s": "s",
    "timing.models": "count",
    "arch.characterize_s": "s",
    "arch.characterize_wait_s": "s",
    "arch.apps": "count",
    "arch.sim_minsts_per_s": "Minst/s",
    "fuzzy.train_s": "s",
    "fuzzy.trainings": "count",
    "fuzzy.train_ms_p50": "ms",
    "fuzzy.label_s": "s",
    "fuzzy.fit_s": "s",
    "optimizer.label_queries": "count",
    "controller.adapt_s": "s",
    "controller.invocations": "count",
    "controller.adapt_us_p50": "us",
    "controller.adapt_us_p99": "us",
    "optimizer.runtime_queries": "count",
    "shard.fold_s": "s",
    "shard.merge_s": "s",
    "shard.imbalance": "ratio",
    "valid.result_bytes": "bytes",
    "exec.busy_share": "ratio",
    "trace.coverage_share": "ratio",
    "trace.overhead_share": "ratio",
}

NO_CHANGE = 0  # RetuneOutcome::NoChange


def log(*parts):
    print("[fig13bench]", *parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed:", " ".join(cmd))
                return False
    return True


def source_digest():
    """sha256 over the model sources and the benchmark, which names
    the code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_binary(args, timeout):
    """Run the benchmark binary; returns (exit code, last stdout line).
    The binary runs in its own process group so a timeout also stops
    any shard workers it forked."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after", timeout, "s")
        return None, None
    lines = [l for l in out.splitlines() if l.strip()]
    return proc.returncode, (lines[-1] if lines else None)


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_reps(reps, reference, workload):
    """Mismatch messages of campaigns whose outputs differ from the
    reference (or from their untraced twin)."""
    problems = []
    table = reference.get("workloads", {}).get(workload, {})
    for i, rep in enumerate(reps):
        key = str(rep["campaign_seed"])
        ref = table.get(key)
        if ref is None:
            problems.append("no reference for campaign seed " + key)
            continue
        for field in ("digest", "chips", "outcomes"):
            if rep[field] != ref[field]:
                problems.append("campaign seed %s: %s %r != reference %r"
                                % (key, field, rep[field], ref[field]))
        if rep["traced"] and i > 0 and rep["digest"] != reps[i - 1]["digest"]:
            problems.append("campaign seed %s: traced digest differs from "
                            "untraced" % key)
    return problems


def good_share(reps):
    good = total = 0
    for rep in reps:
        for env in rep["outcomes"]:
            good += env[NO_CHANGE]
            total += sum(env)
    return good / total if total else 1.0


def end_to_end(raw):
    reps = [r for r in raw["reps"] if not r["traced"]]
    return {
        "chips_per_s": statistics.median(r["chips"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        # Every run completes these campaigns, so the share depends on
        # the seed alone.
        "good_share": good_share(reps[:raw["min_campaigns"]]),
        "fc_fmax_err_mhz": raw["fc"]["fmax_err_mhz"],
        "fc_vdd_err_mv": raw["fc"]["vdd_err_mv"],
    }


def with_units(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def bench(opts):
    out_dir = os.path.join(RUNS, "%s-trace%d" % (opts.workload, opts.trace))
    cmd = ["--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace),
           "--out", out_dir]
    # A run overshoots --seconds by at most one campaign (a pair when
    # traced), and the untraced run adds set-up and the FC check.
    code, line = run_binary(cmd, timeout=opts.seconds * 2 + 100)
    if code == 2:
        sys.exit(2)  # refused (environment or build flags) or bad usage
    raw = None
    problems = []
    if code != 0 or line is None:
        problems.append("benchmark binary failed (exit %s)" % code)
    else:
        raw = json.loads(line)
        with open(os.path.join(out_dir, "raw.json"), "w") as f:
            f.write(line + "\n")
        problems = check_reps(raw["reps"], load_reference(), opts.workload)
    for p in problems:
        log("OUTPUT MISMATCH:", p)

    attempted = sum(r["chips"] for r in raw["reps"]) if raw else 1
    if raw:
        prov = dict(raw["provenance"], source_sha256=source_digest(),
                    workload=opts.workload,
                    campaign_seeds=[r["campaign_seed"] for r in raw["reps"]
                                    if not r["traced"]])
        with open(os.path.join(out_dir, "provenance.json"), "w") as f:
            json.dump(prov, f, indent=2)
        print("provenance " + json.dumps(prov, sort_keys=True))
    if raw and opts.trace:
        metrics = with_units(raw["layers"], PER_LAYER_UNITS)
    elif raw:
        metrics = with_units(end_to_end(raw), END_TO_END_UNITS)
    else:
        metrics = {}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted if problems else 0,
                      "metrics": metrics}))
    return 0


def record(workloads):
    """Recompute reference.json entries with runMonolithic."""
    try:
        reference = load_reference()
    except FileNotFoundError:
        reference = {}
    tables = reference.setdefault("workloads", {})
    for workload in workloads:
        log("recording", workload)
        proc = subprocess.run([BINARY, "reference", "--workload", workload],
                              stdout=subprocess.PIPE, text=True, check=True)
        table = {}
        for line in proc.stdout.splitlines():
            rep = json.loads(line)
            table[str(rep["campaign_seed"])] = {
                k: rep[k] for k in ("digest", "chips", "outcomes")}
        tables[workload] = table
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def self_test():
    """A real run passes the check; each perturbation of its outputs or
    of their reference entry is caught."""
    out_dir = os.path.join(RUNS, "self-test")
    code, line = run_binary(["--workload", "fig13_fuzzy", "--seed", "5",
                             "--seconds", "1", "--trace", "1",
                             "--out", out_dir], timeout=300)
    if code != 0:
        log("self-test: benchmark binary failed")
        return 1
    reps = json.loads(line)["reps"]  # one untraced and one traced twin
    reference = load_reference()
    seed = str(reps[0]["campaign_seed"])

    def bump_tally(reps, table):
        table[seed]["outcomes"][3][1] += 1

    def flip_digest(reps, table):
        table[seed]["digest"] = str(int(table[seed]["digest"]) ^ 1)

    def drop_entry(reps, table):
        del table[seed]

    def split_twin(reps, table):
        reps[1]["digest"] = str(int(reps[1]["digest"]) ^ 2)

    cases = [("true reference", None, None),
             ("one outcome tally +1", bump_tally, "outcomes"),
             ("digest low bit flipped", flip_digest, "digest"),
             ("reference entry missing", drop_entry, "no reference"),
             ("traced digest != untraced twin", split_twin, "traced digest")]
    ok = True
    for name, mutate, expect in cases:
        got_reps, ref = copy.deepcopy(reps), copy.deepcopy(reference)
        if mutate:
            mutate(got_reps, ref["workloads"]["fig13_fuzzy"])
        problems = check_reps(got_reps, ref, "fig13_fuzzy")
        right = any(expect in p for p in problems) if expect else not problems
        log("self-test: %-32s %s -> %s" % (
            name, "caught" if problems else "passes",
            "as expected" if right else "WRONG"))
        ok &= right
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.record and not opts.self_test and None in (
            opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seconds is not None and opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if opts.seed is not None and opts.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        return 1
    if opts.record:
        return record([opts.workload] if opts.workload else WORKLOADS)
    if opts.self_test:
        return self_test()
    return bench(opts)


if __name__ == "__main__":
    sys.exit(main())
