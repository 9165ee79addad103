#!/usr/bin/env python3
"""Whole-job benchmark of the plrupart simulator.

Builds e2ebench/ (which builds the library from this checkout), runs one
named workload in a child process, checks every job's output and prints the
metrics. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 e2ebench/run.py --workload fig7-8T --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all          # every workload, in turn

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones (a
separate traced run). The metrics are documented in e2ebench/README.md.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig7-8T", "fig7-2T-timed", "trace-4T"]
DEFAULT_SEED = 1  # the seed expected_digests.txt was recorded at
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "sim_minstr_per_s": "Minstr/s",
    "job_wall_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_throughput_ipc": "IPC",
    "sim_l2_mpki": "MPKI",
}
PER_LAYER_UNITS = {
    "workloads.gen_ns_per_op": "ns",
    "workloads.share": "ratio",
    "sim.trace_file.decode_ns_per_op": "ns",
    "sim.trace_file.share": "ratio",
    "cache.l1_ns_per_access": "ns",
    "cache.share": "ratio",
    "cache.l1_miss_ratio": "ratio",
    "core.l2_ns_per_access": "ns",
    "core.share": "ratio",
    "core.cpa_ns_per_access": "ns",
    "core.l2_accesses": "count",
    "core.l2_miss_ratio": "ratio",
    "core.repartitions": "count",
    "sim.driver_share": "ratio",
    "sim.trace_ops": "count",
    "sim.measured_op_fraction": "ratio",
    "sim.timed_memory.share": "ratio",
    "sim.timed_memory.dram_reads": "count",
    "sim.timed_memory.mshr_coalesced": "count",
    "sim.timed_memory.mshr_full_stalls": "count",
    "sim.timed_memory.bank_conflicts": "count",
    "runner.setup_us_per_job": "us",
    "runner.csv_us_per_job": "us",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(root)


def build():
    """Configure (once) and build the harness; returns the binary's path."""
    out = os.path.join(build_dir(), "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "e2ebench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=1200)
    return os.path.join(out, "e2ebench")


def run_child(binary, mode, workload, seed, seconds):
    """One workload in one process; returns its parsed JSON record."""
    os.makedirs(build_dir(), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=build_dir())
    try:
        proc = subprocess.run(
            [binary, mode, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--tmp", tmp],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"e2ebench {mode} {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests(path):
    """expected_digests.txt: '<workload> <full|selftest> <job key> <digest>'."""
    table = {}
    with open(path) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                wl, tag, key, dig = line.split()
                table[(wl, tag, key)] = dig
    return table


class Checker:
    """Collects per-job failures; a job key that fails its self-test fails
    every measured run of that key."""

    def __init__(self, workload, seed, digests):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.bad_keys = {}  # key -> reason, from the self-test
        self.failures = []  # (key, reason) per failed measured run

    def expect(self, tag, key, got):
        want = self.digests.get((self.workload, tag, key))
        if want is None:
            return f"no expected {tag} digest recorded"
        if want != got:
            return f"{tag} CSV digest {got} != expected {want}"
        return None

    def self_test(self, records):
        for r in records:
            reasons = []
            if r["split_digest"] != r["exec_digest"]:
                reasons.append("split-path CSV differs from runner::execute")
            if r["mirror"] != r["exec"]:
                reasons.append("mirror counters differ from runner::execute")
            if "twin" in r and r["twin"] != r["exec"]:
                reasons.append("timed counters differ from the functional twin")
            if r["seed"] == DEFAULT_SEED:
                bad = self.expect("selftest", r["key"], r["exec_digest"])
                if bad:
                    reasons.append(bad)
            if reasons:
                self.bad_keys[r["key"]] = "self-test: " + "; ".join(reasons)

    def job(self, key, reasons):
        if key in self.bad_keys:
            reasons = [self.bad_keys[key]] + reasons
        if reasons:
            self.failures.append((key, "; ".join(reasons)))
        return not reasons

    def check_digest(self, key, dig, first_digest):
        if self.seed == DEFAULT_SEED:
            return self.expect("full", key, dig)
        if first_digest.setdefault(key, dig) != dig:
            return f"CSV digest {dig} differs from this run's first pass {first_digest[key]}"
        return None


def sanity(counters, instr_per_core):
    for instr, l1_acc, l1_miss, l2_acc, l2_miss in counters["threads"]:
        if instr < instr_per_core:
            return f"a core retired {instr} < {instr_per_core} measured instructions"
        if l1_miss != l2_acc or l2_miss > l2_acc or l1_miss > l1_acc:
            return "inconsistent L1/L2 counters"
    return None


def end_to_end(d, checker):
    twins = {t["key"]: t["counters"] for t in d["twins"]}
    first_digest = {}
    ok = []
    for j in d["jobs"]:
        reasons = []
        if "error" in j:
            reasons.append("threw: " + j["error"])
        else:
            for bad in (checker.check_digest(j["key"], j["digest"], first_digest),
                        sanity(j["counters"], d["instr_per_core"])):
                if bad:
                    reasons.append(bad)
            if j["key"] in twins and twins[j["key"]] != j["counters"]:
                reasons.append("counters differ from the functional twin")
        if checker.job(j["key"], reasons):
            ok.append(j)
    attempted = len(d["jobs"])
    if not ok:
        return attempted, {}
    # Each job's fastest pass: interference from other tenants of the host
    # only ever adds time, and it drifts 10-20% between runs a minute apart,
    # so per-job medians are not steady; the best of several passes is.
    by_key = {}
    for j in ok:
        by_key.setdefault(j["key"], []).append(j)
    best = {k: min(j["execute_s"] + j["csv_s"] for j in js) for k, js in by_key.items()}
    first = {k: js[0] for k, js in by_key.items()}
    setup_per_pass = {}
    for j in ok:
        setup_per_pass[j["pass"]] = setup_per_pass.get(j["pass"], 0.0) + j["setup_s"]
    instr = sum(j["instructions"] for j in first.values())
    metrics = {
        "sim_minstr_per_s": instr / sum(best.values()) / 1e6,
        "job_wall_s.p50": statistics.median(best.values()),
        "setup_s": statistics.median(setup_per_pass.values()),
        "peak_rss_mb": d["peak_rss_mb"],
        "sim_throughput_ipc": statistics.fmean(j["ipc"] for j in first.values()),
        "sim_l2_mpki": 1000.0 * sum(j["l2_misses"] for j in first.values()) / instr,
    }
    log(f"  {len(ok)} job runs in {d['passes']} passes over {len(first)} jobs "
        f"({d['measured_s']:.1f} s); job_wall_s.p50 is the median over the {len(first)} "
        "jobs of each one's fastest pass")
    return attempted, metrics


def tracing_overhead(j):
    """Mirror wall minus the untraced wall it mirrors. The mirror always drives
    the functional loop, so a timed job is compared with its functional twin.
    The untraced side is its fastest repeat: interference only adds time, and
    a median inflated by a slow repeat can exceed the single mirror run."""
    return j["mirror_wall_s"] - min(j["twin_wall_s"] if j["timed"] else j["wall_s"])


def per_layer(d, checker):
    ok = []
    for j in d["jobs"]:
        reasons = []
        if j["mirror"] != j["counters"]:
            reasons.append("traced mirror counters differ from the job's")
        if j["wraps"]:
            reasons.append(f"{j['wraps']} trace-file wraps before the quota")
        for bad in (checker.check_digest(j["key"], j["digest"], {}),
                    sanity(j["counters"], d["instr_per_core"])):
            if bad:
                reasons.append(bad)
        if checker.job(j["key"], reasons):
            ok.append(j)
    if not ok:
        return len(d["jobs"]), {}

    wall_total = busy_total = overhead = 0.0
    flagged = 0
    l1_busy = l2_busy = gen_busy = decode_busy = timed_busy = 0.0
    for j in ok:
        wall = statistics.median(j["wall_s"])
        spread = (max(j["wall_s"]) - min(j["wall_s"])) / wall
        l1 = max(0.0, j["hier_window_s"] - j["l2_window_s"]) * j["all_l1_accesses"] / j["window_ops"]
        l2 = j["l2_window_s"] * j["all_l2_accesses"] / max(1, j["window_l2"])
        source = j["decode_s"] if j["from_traces"] else j["gen_s"]
        timed = max(0.0, wall - statistics.median(j["twin_wall_s"])) if j["timed"] else 0.0
        busy = j["setup_s"] + j["csv_s"] + source + l1 + l2 + timed
        if busy > wall * (1.0 + spread):
            flagged += 1
            log(f"  flag: {j['key']}: layer busy {busy:.3f} s > job wall {wall:.3f} s "
                f"beyond its spread {spread:.1%}")
        overhead_j = tracing_overhead(j)
        log(f"  {j['key']}: wall {wall:.3f} s, tracing overhead {overhead_j:+.3f} s")
        wall_total += wall
        busy_total += busy
        overhead += overhead_j
        l1_busy += l1
        l2_busy += l2
        timed_busy += timed
        if j["from_traces"]:
            decode_busy += source
        else:
            gen_busy += source

    def ratio(num, den):
        return num / den if den else 0.0

    part = [j for j in ok if j["partitioned"]]
    timed_jobs = [j for j in ok if j["timed"]]
    def total(key, jobs=ok):
        return sum(j[key] for j in jobs)

    metrics = {
        "workloads.gen_ns_per_op": 1e9 * ratio(total("gen_s"), total("trace_ops")),
        "workloads.share": ratio(gen_busy, wall_total),
        "sim.trace_file.decode_ns_per_op": 1e9 * ratio(total("decode_s"), total("decode_ops")),
        "sim.trace_file.share": ratio(decode_busy, wall_total),
        "cache.l1_ns_per_access": 1e9 * ratio(
            sum(max(0.0, j["hier_window_s"] - j["l2_window_s"]) for j in ok), total("window_ops")),
        "cache.share": ratio(l1_busy, wall_total),
        "cache.l1_miss_ratio": ratio(total("l1_misses"), total("l1_accesses")),
        "core.l2_ns_per_access": 1e9 * ratio(total("l2_window_s"), total("window_l2")),
        "core.share": ratio(l2_busy, wall_total),
        "core.cpa_ns_per_access": 1e9 * ratio(
            sum(j["l2_window_s"] - j["l2_none_window_s"] for j in part), total("window_l2", part)),
        "core.l2_accesses": total("l2_accesses"),
        "core.l2_miss_ratio": ratio(total("l2_misses"), total("l2_accesses")),
        "core.repartitions": sum(j["counters"]["repartitions"] for j in ok),
        "sim.driver_share": ratio(max(0.0, wall_total - busy_total), wall_total),
        "sim.trace_ops": total("trace_ops"),
        "sim.measured_op_fraction": ratio(total("l1_accesses"), total("trace_ops")),
        "sim.timed_memory.share": ratio(timed_busy, sum(statistics.median(j["wall_s"])
                                                        for j in timed_jobs)),
        "sim.timed_memory.dram_reads": total("dram_reads"),
        "sim.timed_memory.mshr_coalesced": total("mshr_coalesced"),
        "sim.timed_memory.mshr_full_stalls": total("mshr_full_stalls"),
        "sim.timed_memory.bank_conflicts": total("bank_conflicts"),
        "runner.setup_us_per_job": 1e6 * total("setup_s") / len(ok),
        "runner.csv_us_per_job": 1e6 * total("csv_s") / len(ok),
        "trace.overhead_s": overhead,
    }
    if busy_total > wall_total:
        log(f"  flag: layer busy time {busy_total:.3f} s exceeds job wall {wall_total:.3f} s; "
            "sim.driver_share printed as 0")
    log(f"  {len(ok)} jobs traced in {d['traced_s']:.1f} s; tracing overhead "
        f"{overhead:.3f} s over {wall_total:.3f} s of untraced job wall")
    log(f"  flagged jobs (layer busy time > wall beyond its spread): {flagged}")
    return len(d["jobs"]), metrics


def host_line():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"host: {os.cpu_count()} CPUs, {model}"


def run_workload(binary, workload, seed, seconds, trace, digests):
    checker = Checker(workload, seed, digests)
    mode = "trace" if trace else "run"
    d = run_child(binary, mode, workload, seed, seconds)
    checker.self_test(d["selftest"])
    attempted, metrics = (per_layer if trace else end_to_end)(d, checker)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for key, reason in checker.failures:
        log(f"  FAILED {key}: {reason}")
    failed = len(checker.failures)
    print(f"{workload} (seed {seed}, {mode}): failed_job_ratio {failed}/{attempted}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items() if name in metrics}
    return failed == 0 and len(result) == len(units), attempted, failed, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    digests = load_digests(os.path.join(HERE, "expected_digests.txt"))
    print(host_line())
    print("model: unvalidated; no hardware reference, no error figure")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        ok, a, f, m = run_workload(binary, w, args.seed, args.seconds, args.trace, digests)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = f"{w}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"e2ebench: {e}")
        sys.exit(1)
