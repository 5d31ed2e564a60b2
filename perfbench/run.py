#!/usr/bin/env python3
"""Benchmark of the Clove simulator: four workloads, end-to-end and per-layer metrics.

Every measurement comes from perfbench/probe.exe, started as a fresh
process per run, one at a time; this script builds it from the checkout,
runs it, checks its outputs and derives the metrics named in
BENCHMARK.json.  See perfbench/README.md.

One workload for about --seconds; the last stdout line is one JSON result
(--trace 0: end-to-end metrics, --trace 1: per-layer metrics):
    python3 perfbench/run.py --workload websearch --seed 1 --seconds 20 --trace 0
Every workload, N full-size runs of one seed plus one traced run, one record:
    python3 perfbench/run.py --benchmark [--runs 5] [--seed 1] [-o FILE]
Two records side by side with verdicts; exit 1 on a regression:
    python3 perfbench/run.py --compare A.json B.json
Every workload at 1/50 size, checking that every metric is emitted:
    python3 perfbench/run.py --smoke
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).absolute().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BUILT_PROBE = BUILD_DIR / "default" / "perfbench" / "probe.exe"
# the probe that runs: BUILT_PROBE, or a prebuilt one named by --probe
PROBE = BUILT_PROBE
WORKLOADS = ["websearch", "incast", "clos3-brownout", "wide-pdes"]

PROBE_TIMEOUT_S = 120
# Timed runs are many short probes, probe i on derived seed
# seed * SEED_STRIDE + i at TIMED_SCALE of the full size: ten or so
# independent inputs move far less from seed to seed than one long run.
# Each probe runs its input TIMED_REPEAT times and keeps the fastest:
# the first run of a process is the slowest, and repeats share its
# start-up and set-up.
TIMED_SCALE = 0.1
TIMED_REPEAT = 3
SEED_STRIDE = 1000
# The faulted CAFT run of the 3-tier chaos flagship at seed 1 has this
# FCT digest (results/BENCH_chaos3.json, CAFT row).
CLOS3_SEED1_DIGEST = "fab7d5580cdf2ae84896193ee7ee59e1"
# wide-pdes must give byte-identical FCT records serially and sharded;
# checked on a short run at this scale.
SHARD_CHECK_SCALE = 0.04


class BenchError(Exception):
    pass


def median(xs):
    return statistics.median(xs)


def ratio(a, b):
    return a / b if b else 0.0


# ----------------------------------------------------------------- probe


def build():
    """Build the probe from this checkout's sources into .bench_build,
    unless --probe named a prebuilt one."""
    if PROBE != BUILT_PROBE:
        return
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        raise BenchError(f"{ROOT} is not a full checkout (no dune-project or lib/)")
    r = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
         "--cache=disabled", "./perfbench/probe.exe"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0 or not PROBE.is_file():
        sys.stderr.write(r.stdout)
        raise BenchError("building perfbench/probe.exe failed")


def probe(*args, trace=False):
    cmd = [str(PROBE), *map(str, args)] + (["--trace"] if trace else [])
    # A traced probe writes its Runtime_events ring into a directory of
    # its own next to the binary.  The probe reads the ring once per
    # major GC cycle; wide-pdes's two domains overflow the default
    # 2^16-word ring per domain between reads, so it is 2^19 words (a
    # sparse file, 512 MB long, of which only the used pages are written).
    with tempfile.TemporaryDirectory(dir=PROBE.parent) as events:
        env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events, OCAMLRUNPARAM="e=19")
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"probe {' '.join(cmd[1:])}: no result in {PROBE_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError(f"probe {' '.join(cmd[1:])}: exit code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_probe(workload, seed, scale=1.0, repeat=1, trace=False):
    """One probe of one input, run [repeat] times in the process; its
    wall_s is the fastest of those runs."""
    r = probe("run", workload, "--seed", seed, "--scale", scale,
              "--repeat", repeat, trace=trace)
    r["wall_s"] = min(r["wall_s"])
    return r


# --------------------------------------------------------------- checks


def check_each(runs):
    """Invariants every probe's output must satisfy."""
    problems = []
    for r in runs:
        c = r["counters"]
        if any(d != r["digest"] for d in r["repeat_digests"]):
            problems.append("FCT digests differ between repeats in one probe")
        if r["fault_ns"] is not None and c["workload.sim_ns"] <= r["fault_ns"]:
            problems.append("the run ended before its fault began")
        delivered = c["netsim.switch_rx_packets"] + c["netsim.host_rx_packets"]
        if delivered > c["netsim.link_tx_packets"] - c["netsim.brownout_drops"]:
            problems.append("links delivered more packets than they sent")
        if not 0 < r["fct_p50_s"] <= r["fct_p99_s"]:
            problems.append("FCT percentiles out of order")
        if not (r["goodput_bps"] > 0 and c["workload.sim_ns"] > 0):
            problems.append("no simulated progress")
        if r.get("trace", {}).get("lost_events"):
            problems.append("the GC trace lost runtime events")
    # the only fault plan is the core brownout: its wire loss must show
    faulted = [r for r in runs if r["fault_ns"] is not None]
    if faulted and not sum(r["counters"]["netsim.brownout_drops"] for r in faulted):
        problems.append("the brownout dropped no packet")
    return problems


def check_same(runs):
    """Probes of one input must agree on every record and counter."""
    problems = []
    first = runs[0]
    for r in runs[1:]:
        if r["digest"] != first["digest"]:
            problems.append("FCT digests differ between runs of one seed")
        diff = [k for k in first["counters"]
                if r["counters"].get(k) != first["counters"][k]]
        if diff:
            problems.append("counters differ between runs of one seed: "
                            + ", ".join(diff))
    return problems


def check_workload(workload, seed, full_runs):
    """Workload-specific reference checks.  [full_runs] are full-size
    probes of [seed]; without them the pinned digest is not checked,
    which keeps a timed run within its time."""
    if workload == "clos3-brownout" and full_runs:
        digest = (full_runs[0]["digest"] if seed == 1
                  else run_probe(workload, 1)["digest"])
        if digest != CLOS3_SEED1_DIGEST:
            return [f"seed-1 digest {digest} is not the pinned {CLOS3_SEED1_DIGEST}"]
    if workload == "wide-pdes":
        digests = [probe("run", workload, "--seed", seed, "--scale",
                         SHARD_CHECK_SCALE, "--shards", s)["digest"]
                   for s in (1, 2)]
        if digests[0] != digests[1]:
            return [f"digest differs at --shards 1 and 2: {digests}"]
    return []


def flow_counts(runs):
    attempted = sum(r["flows_offered"] for r in runs)
    failed = sum(r["flows_offered"] - r["counters"]["workload.flows"] for r in runs)
    return attempted, failed


# -------------------------------------------------------------- metrics


def end_to_end(runs):
    """End-to-end metrics as (value of each probe, unit, how the probes
    combine into one value).  On a shared host, slowdowns only ever add
    time and last for seconds, so the median of one run's probes drifts
    with the host while the fastest probe holds steadier: throughput and
    set-up time take the fastest probe (and its fastest set-up), the
    peak heap, which no slowdown moves, the median."""
    return {
        "payload_mb_per_s": ([r["payload_bytes"] / 1e6 / r["wall_s"] for r in runs],
                             "MB/s", max),
        "setup_s": ([min(r["setup_s"]) for r in runs], "s", min),
        "peak_heap_mb": ([r["top_heap_bytes"] / 1e6 for r in runs], "MB", median),
    }


def per_layer(wall_s, traced, ns):
    """Per-layer metrics as (value, unit): the traced probe's counters,
    rates over the untraced wall time [wall_s], per-call costs [ns]."""
    c, gc, pool, tr = traced["counters"], traced["gc"], traced["pool"], traced["trace"]
    events = c["engine.events"]
    width = c["shard.width"]
    # A layer's estimated host time: its public call counts times the
    # measured per-call cost of the matching microbenchmark.  The
    # netsim benches dispatch their own events (a link send two, a
    # switch traversal one more plus its egress link's send), so those
    # dispatches are taken out to leave them to engine.est_s alone.
    dispatch, send = ns["engine.dispatch_ns"], ns["netsim.link_send_ns"]
    est = {
        "engine": events * dispatch,
        "netsim": c["netsim.link_tx_packets"] * max(0, send - 2 * dispatch)
        + c["netsim.switch_rx_packets"]
        * max(0, ns["netsim.switch_forward_ns"] - send - dispatch),
        "clove": c["clove.tx_tenant"] * ns["clove.flowlet_touch_ns"]
        + c["clove.flowlets"] * ns["clove.wrr_pick_ns"]
        + c["clove.feedback_seen"] * ns["clove.path_table_update_ns"],
        "workload": c["workload.flows"] * ns["workload.fct_record_ns"],
    }
    est = {k: v * 1e-9 for k, v in est.items()}
    gc_s = tr["minor_s"] + tr["major_s"]
    count = lambda k: (c[k], "count")
    m = {
        "engine.events": count("engine.events"),
        "engine.events_per_s": (events / wall_s, "1/s"),
        "engine.wheel_frac": (ratio(c["engine.wheel_scheduled"],
                                    c["engine.wheel_scheduled"]
                                    + c["engine.heap_scheduled"]), "ratio"),
        "engine.heap_scheduled": count("engine.heap_scheduled"),
        "engine.compactions": count("engine.compactions"),
        "engine.batched_frac": (ratio(c["engine.batched_events"], events), "ratio"),
        "engine.est_s": (est["engine"], "s"),
        "shard.windows": count("shard.windows"),
        "shard.stalls": count("shard.stalls"),
        "shard.stall_frac": (ratio(c["shard.stalls"], c["shard.windows"] * width),
                             "ratio"),
        "shard.boundary_events": count("shard.boundary_events"),
        "shard.events_per_window": (ratio(events, c["shard.windows"]), "count"),
        "shard.window_ns": (c["shard.window_ns"], "ns"),
        "netsim.link_tx_packets": count("netsim.link_tx_packets"),
        "netsim.switch_rx_packets": count("netsim.switch_rx_packets"),
        "netsim.hops_per_packet": (ratio(c["netsim.switch_rx_packets"],
                                         c["netsim.host_tx_packets"]), "count"),
        "netsim.queue_drops": count("netsim.queue_drops"),
        "netsim.ecn_marks": count("netsim.ecn_marks"),
        "netsim.max_queue_pkts": (c["netsim.max_queue_pkts"], "pkts"),
        "netsim.brownout_drops": count("netsim.brownout_drops"),
        "netsim.pool_hit_rate": (ratio(pool["hits"], pool["hits"] + pool["misses"]),
                                 "ratio"),
        "netsim.est_s": (est["netsim"], "s"),
        "clove.tx_tenant": count("clove.tx_tenant"),
        "clove.flowlets": count("clove.flowlets"),
        "clove.flowlets_per_ktx": (ratio(1000 * c["clove.flowlets"],
                                         c["clove.tx_tenant"]), "count"),
        "clove.feedback_seen": count("clove.feedback_seen"),
        "clove.piggyback_frac": (ratio(c["clove.feedback_piggybacked"],
                                       c["clove.feedback_piggybacked"]
                                       + c["clove.feedback_carriers"]), "ratio"),
        "clove.escalations": count("clove.escalations"),
        "clove.probes_answered": count("clove.probes_answered"),
        "clove.peak_flows_tracked": count("clove.peak_flows_tracked"),
        "clove.est_s": (est["clove"], "s"),
        "fabric_lb.decisions": count("fabric_lb.decisions"),
        "fabric_lb.flowlets_started": count("fabric_lb.flowlets_started"),
        "fabric_lb.reweights": count("fabric_lb.reweights"),
        "transport.retransmits": count("transport.retransmits"),
        "transport.timeouts": count("transport.timeouts"),
        "transport.unknown_drops": count("transport.unknown_drops"),
        "workload.flows": count("workload.flows"),
        "workload.fct_p50_ms": (traced["fct_p50_s"] * 1e3, "ms"),
        "workload.fct_p99_ms": (traced["fct_p99_s"] * 1e3, "ms"),
        "workload.goodput_gbps": (traced["goodput_bps"] / 1e9, "Gbit/s"),
        "gc.minor_words_per_event": (ratio(gc["minor_words"], events), "words"),
        "gc.promoted_words": (gc["promoted_words"], "words"),
        "gc.minor_collections": (gc["minor_collections"], "count"),
        "gc.major_collections": (gc["major_collections"], "count"),
        "gc.minor_s": (tr["minor_s"], "s"),
        "gc.major_s": (tr["major_s"], "s"),
        "gc.busy_frac": (gc_s / (traced["wall_s"] * width), "ratio"),
        "trace.overhead_frac": (traced["wall_s"] / wall_s - 1, "ratio"),
        "trace.attributed_frac": ((sum(est.values()) + gc_s) / wall_s, "ratio"),
    }
    m.update({k: (v, "ns") for k, v in ns.items()})
    return m


# ------------------------------------------------------------ the spec


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def emit(spec, section, values):
    """{name: {value, unit}} for every metric of a BENCHMARK.json section,
    in its order, refusing a missing metric or a unit that differs."""
    out = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: measured in {unit}, spec says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


# ------------------------------------------------------ one workload run


def timed_runs(workload, seed, seconds):
    """Short probes back to back for about [seconds], each on its own
    derived seed."""
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(run_probe(workload, seed * SEED_STRIDE + len(runs), TIMED_SCALE,
                              TIMED_REPEAT))
        last = time.monotonic() - t0
        # stop when one more probe would end further past the deadline
        # than this one ends before it
        if time.monotonic() - start + last / 2 >= seconds:
            return runs


def single(args):
    spec = load_spec()
    build()
    if args.trace:
        r = measure(spec, args.workload, args.seed,
                    [run_probe(args.workload, args.seed)], probe("micro"))
        problems, metrics = r["problems"], r["per_layer"]
        attempted, failed = r["attempted"], r["failed"]
    else:
        runs = timed_runs(args.workload, args.seed, args.seconds)
        problems = sorted(set(check_each(runs)
                              + check_workload(args.workload, args.seed, [])))
        metrics = emit(spec, "end_to_end", {k: (agg(v), unit) for k, (v, unit, agg)
                                            in end_to_end(runs).items()})
        attempted, failed = flow_counts(runs)
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"{args.workload}, seed {args.seed}: {failed}/{attempted} flows failed")
    print_metrics(metrics)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ------------------------------------------------------------ full record


def host_info(ocaml):
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True,
                                        text=True)
        r = git("rev-parse", "HEAD")
        if r.returncode == 0:
            commit = r.stdout.strip()
            if git("status", "--porcelain").stdout.strip():
                commit += "-dirty"
    return {"cores": os.cpu_count(), "ocaml": ocaml, "commit": commit}


def summary(xs, unit, agg):
    """One metric over the runs: its value, median, quartiles and range."""
    q1, q3 = (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else (xs[0], xs[0]))
    return {"value": agg(xs), "unit": unit, "median": median(xs), "min": min(xs),
            "q1": q1, "q3": q3, "max": max(xs), "runs": xs}


def measure(spec, workload, seed, untraced, micro, scale=1.0):
    """The workload's entry in a record, from [untraced] probes of one
    seed and one more, traced, probe."""
    traced = run_probe(workload, seed, scale, trace=True)
    problems = (check_same(untraced + [traced]) + check_each(untraced + [traced])
                + check_workload(workload, seed, untraced if scale == 1.0 else []))
    attempted, failed = flow_counts(untraced)
    measured = end_to_end(untraced)
    emit(spec, "end_to_end", {k: (agg(v), unit) for k, (v, unit, agg)
                              in measured.items()})
    # wall_s is kept for reading, not gated: its work varies by seed
    measured["wall_s"] = ([r["wall_s"] for r in untraced], "s", min)
    e2e = {k: summary(*m) for k, m in measured.items()}
    layers = per_layer(e2e["wall_s"]["median"], traced, micro)
    return {
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": untraced[0]["digest"],
        "ocaml": untraced[0]["ocaml"],
        "end_to_end": e2e,
        "per_layer": emit(spec, "per_layer", layers),
        "counters": untraced[0]["counters"],
    }


def benchmark(runs, seed, scale=1.0, micro_quota=0.25):
    spec = load_spec()
    build()
    micro = probe("micro", "--quota", micro_quota)
    # Round i runs every workload once: a host slowdown lasting a minute
    # then slows one run of each workload, not every run of one.
    untraced = {w: [] for w in WORKLOADS}
    for i in range(runs):
        for w in WORKLOADS:
            untraced[w].append(run_probe(w, seed, scale))
            print(f"  {w} run {i + 1}/{runs}: {untraced[w][-1]['wall_s']:.3f} s",
                  file=sys.stderr)
    record = {"seed": seed, "runs": runs, "scale": scale,
              "workloads": {w: measure(spec, w, seed, untraced[w], micro, scale)
                            for w in WORKLOADS},
              "micro_ns": micro}
    record["host"] = host_info(record["workloads"]["websearch"]["ocaml"])
    return record


def print_record(record):
    h = record["host"]
    print(f"host: {h['cores']} cores, OCaml {h['ocaml']}, commit {h['commit']}")
    for w, r in record["workloads"].items():
        verdict = "correct" if r["correct"] else "INCORRECT: " + "; ".join(r["problems"])
        print(f"\n== {w}: {verdict}; {r['failed']}/{r['attempted']} flows failed; "
              f"digest {r['digest']}")
        for name, m in r["end_to_end"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} "
                  f"min {m['min']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}")
        print_metrics(r["per_layer"])


# --------------------------------------------------------------- compare


def verdict(metric, a, b):
    """better / unchanged / worse / unresolved for B against A.  A loss
    within the bound but wider than both IQRs is unresolved, not
    unchanged: the records cannot tell it from a real regression."""
    lower = metric["better"] == "lower"
    base = a["value"]
    change = (a["value"] - b["value"] if lower else b["value"] - a["value"]) / base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    b_always_better = (max(b["runs"]) < min(a["runs"]) if lower
                       else min(b["runs"]) > max(a["runs"]))
    if change < -metric["bound"]:
        return change, "worse"
    if spread > metric["bound"] and not b_always_better:
        return change, "unresolved"
    if change > spread or (change > 0 and b_always_better):
        return change, "better"
    if -change > spread:
        return change, "unresolved"
    return change, "unchanged"


def compare(path_a, path_b):
    """Print B against A per workload and metric; True when B regressed."""
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    regressed = False
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        ra, rb = a["workloads"][w], b["workloads"][w]
        print(f"== {w}  (gain: + is better; IQRs as a share of A)")
        if not rb["correct"]:
            print("  B is INCORRECT: " + "; ".join(rb["problems"]))
            regressed = True
        for metric in spec["end_to_end"]:
            ma, mb = ra["end_to_end"][metric["name"]], rb["end_to_end"][metric["name"]]
            change, v = verdict(metric, ma, mb)
            regressed |= v == "worse"
            iqr = lambda m: 100 * (m["q3"] - m["q1"]) / ma["value"]
            print(f"  {metric['name']:18s} {ma['value']:>12.6g} -> {mb['value']:<12.6g}"
                  f" {metric['unit']:5s} gain {100 * change:+.1f}% "
                  f"(bound {100 * metric['bound']:.0f}%, IQR {iqr(ma):.1f}% / "
                  f"{iqr(mb):.1f}%): {v}")
        if rb["failed_frac"] > ra["failed_frac"]:
            print(f"  failed flows rose: {ra['failed']}/{ra['attempted']} -> "
                  f"{rb['failed']}/{rb['attempted']}")
            regressed = True
        ca, cb = ra["counters"], rb["counters"]
        changed = [k for k in ca if ca[k] != cb.get(k)]
        for k in changed:
            print(f"  counter {k}: {ca[k]} -> {cb.get(k)}")
        print(f"  {len(ca) - len(changed)} of {len(ca)} deterministic counters identical")
    return regressed


# ----------------------------------------------------------------- smoke


def smoke():
    """Every workload at 1/50 size, one run each, and short
    microbenchmarks; True when all is well.  emit() has already refused
    any metric of BENCHMARK.json that is missing or in another unit."""
    record = benchmark(runs=1, seed=1, scale=0.02, micro_quota=0.02)
    ok = True
    for w, r in record["workloads"].items():
        if not r["correct"] or r["failed"]:
            print(f"{w}: {r['failed']} flows failed; problems: {r['problems']}")
            ok = False
    print("smoke: " + ("ok, every metric emitted" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--benchmark", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("-o", "--output")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", help="use this prebuilt probe.exe; build nothing")
    args = ap.parse_args()
    if args.probe:
        global PROBE
        PROBE = Path(args.probe).absolute()
    try:
        if args.compare:
            return 1 if compare(*args.compare) else 0
        if args.smoke:
            return 0 if smoke() else 1
        if args.benchmark:
            record = benchmark(args.runs, args.seed)
            print_record(record)
            if args.output:
                with open(args.output, "w") as f:
                    json.dump(record, f, indent=1)
                    f.write("\n")
            return 0 if all(r["correct"] for r in record["workloads"].values()) else 1
        if args.workload:
            single(args)
            return 0
        ap.error("give --workload, --benchmark, --compare or --smoke")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
