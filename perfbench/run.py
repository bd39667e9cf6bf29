"""Host cost of four paper workloads, end to end, with a per-layer trace.

    python perfbench/run.py [--workload W[,W...]] [--seed N]
                            [--seconds S | --reps N] [--trace [0|1]]
                            [--smoke] [--json PATH]

Every (workload, repetition) runs in a fresh interpreter (``child.py``)
with ``REPRO_*`` variables cleared, one child at a time. Repetitions go
round-robin over the selected workloads, rotating the order each round,
so drift in machine speed hits every workload alike. ``--seconds S``
keeps starting rounds while another fits in S seconds (at least three);
``--reps N`` runs exactly N; with neither, 7. ``--trace`` adds one
repetition per workload under cProfile, after the untraced ones, and
writes ``perfbench/out/trace_<workload>.json``.

A seed stands for ``INPUTS`` inputs, which the repetitions take in turn.

Output: one line per metric, ``<workload> <metric> <median> <unit>
q1=.. q3=.. n=..``; then one line per workload on its output digests,
checked against ``pins.json`` for pinned seeds and between repetitions
of the same input always; last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or with ``--trace`` its per-layer metrics). Exit status
1 if any repetition failed, 2 if the checkout holds no ``src/repro`` to
measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import SMOKE_SCALE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_REPS = 7
MIN_REPS = 3
#: A seed stands for this many inputs: repetition i of a run measures
#: input ``seed * INPUTS + i % INPUTS``. rpc_mq's work depends on how
#: many of its 0.5% ten-millisecond RANGE requests a seed draws (event
#: count IQR 9% across single seeds); a median over eight inputs keeps
#: that draw out of the run-to-run spread.
INPUTS = 8
#: A traced repetition costs at most this many untraced ones (cProfile
#: measured at 1.2-3.6x); used only to keep a timed run in its budget.
TRACE_COST = 4.0
CHILD_TIMEOUT_S = 120
#: String hashing is fixed in every child so that call counts repeat.
HASH_SEED = "0"
#: Metrics measured by each child; all but ``setup_s`` time the call.
CHILD_METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
#: Printed beside them, outside BENCHMARK.json: the share of repetitions
#: that failed (0 when all is well, so not a bounded metric), the host's
#: speed relative to the reference, and wall time as measured (child.py
#: explains reference seconds).
EXTRA_UNITS = {"fail_frac": "ratio", "host_speed": "ratio",
               "wall_raw_s": "s"}


@dataclasses.dataclass
class Rep:
    workload: str
    #: Which of the seed's ``INPUTS`` inputs the repetition ran.
    input: int
    traced: bool
    elapsed_s: float
    data: Optional[dict] = None
    error: Optional[str] = None


def summary(values: List[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "values": values}


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def child_env():
    """The children's environment and the ``REPRO_*`` variables it drops."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    seen = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    return env, seen


def run_child(name: str, seed: int, index: int, smoke: bool, traced: bool,
              env: dict) -> Rep:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", name, "--seed", str(seed * INPUTS + index)]
    cmd += ["--smoke"] * smoke + ["--profile"] * traced
    started = time.perf_counter()
    rep = Rep(name, index, traced, 0.0)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep.error = f"timed out after {CHILD_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            rep.error = f"exit {proc.returncode}: {tail[0]}"
        else:
            rep.data = json.loads(lines[-1])
    rep.elapsed_s = time.perf_counter() - started
    return rep


def collect(names: List[str], args, env: dict) -> List[Rep]:
    """Untraced rounds, then (with ``--trace``) one traced rep each, on
    input 0."""
    reps: List[Rep] = []
    longest = dict.fromkeys(names, 0.0)
    deadline = None
    if args.reps is None and args.seconds is not None:
        deadline = time.perf_counter() + args.seconds
    rounds = args.reps or DEFAULT_REPS
    done = 0
    while True:
        if deadline is None:
            if done >= rounds:
                break
        else:
            need = sum(longest.values())
            reserve = TRACE_COST * need if args.trace else 0.0
            if done >= MIN_REPS and \
                    time.perf_counter() + need + reserve > deadline:
                break
        shift = done % len(names)
        for name in names[shift:] + names[:shift]:
            rep = run_child(name, args.seed, done % INPUTS, args.smoke,
                            False, env)
            longest[name] = max(longest[name], rep.elapsed_s)
            reps.append(rep)
        done += 1
    if args.trace:
        reps += [run_child(name, args.seed, 0, args.smoke, True, env)
                 for name in names]
    return reps


def check(reps: List[Rep], pins: Optional[List[str]]) -> Dict[int, dict]:
    """Fail every rep that errs, breaks a sanity check, differs from its
    input's pin, or differs from an earlier rep of the same input.
    Returns the first good rep of each input."""
    first: Dict[int, dict] = {}
    for rep in reps:
        if rep.error is not None:
            continue
        data, pin = rep.data, pins[rep.input] if pins else None
        earlier = first.get(rep.input)
        if data["problems"]:
            rep.error = "; ".join(data["problems"])
        elif pin is not None and data["digest"] != pin:
            rep.error = f"digest {data['digest'][:16]} differs from the pin"
        elif earlier is not None and data["digest"] != earlier["digest"]:
            rep.error = (f"digest {data['digest'][:16]} differs from "
                         f"{earlier['digest'][:16]} of the same input")
        elif earlier is not None and data["stats"] != earlier["stats"]:
            rep.error = "counters differ from an earlier rep of this input"
        elif earlier is None:
            first[rep.input] = data
    return first


def evaluate(reps: List[Rep], pins: Optional[List[str]],
             units: Dict[str, str]) -> dict:
    """Check one workload's reps and reduce them to metrics."""
    first = check(reps, pins)
    good = [r.data for r in reps if r.error is None and not r.traced]
    traced = [r.data for r in reps if r.error is None and r.traced]
    failures = [f"rep {i}{' (traced)' * r.traced} on input {r.input}: "
                f"{r.error}" for i, r in enumerate(reps) if r.error]
    metrics: Dict[str, dict] = {
        "fail_frac": summary([len(failures) / len(reps)],
                             units["fail_frac"])}
    for metric in CHILD_METRICS + ("host_speed", "wall_raw_s"):
        if good:
            metrics[metric] = summary([d[metric] for d in good],
                                      units[metric])
    counts = first[0]["stats"] if 0 in first else None
    for metric, value in (counts or {}).items():
        metrics[metric] = summary([value], units[metric])
    if good:
        metrics["sim.events_per_s"] = summary(
            [statistics.median(d["stats"]["sim.events_dispatched"]
                               / d["wall_s"] for d in good)],
            units["sim.events_per_s"])
    base = [r.data["wall_s"] for r in reps
            if r.error is None and not r.traced and r.input == 0]
    trace = None
    if traced and base:
        overhead = traced[0]["wall_s"] / statistics.median(base)
        trace = dict(traced[0]["profile"], trace_overhead=overhead,
                     wall_raw_s=traced[0]["wall_raw_s"])
        for layer, values in trace["layers"].items():
            for key, value in values.items():
                metrics[f"{layer}.{key}"] = summary(
                    [value], units[f"{layer}.{key}"])
        metrics["trace_overhead"] = summary([overhead],
                                            units["trace_overhead"])
    return {
        "params": good[0]["params"] if good else None,
        "digests": [first[i]["digest"] if i in first else None
                    for i in range(INPUTS)],
        "pinned_digests": pins,
        "counts": counts,
        "attempted": len(reps),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "trace": trace,
        "reps": [dict(r.data, profile=None, traced=r.traced)
                 if r.data else {"error": r.error, "traced": r.traced}
                 for r in reps],
    }


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha.stdout.strip() or None, bool(status.stdout.strip())


def provenance(args, names: List[str], seen: Dict[str, str]) -> dict:
    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty,
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "smoke": args.smoke, "trace": bool(args.trace),
        "workload_params": {n: WORKLOADS[n].scaled_params(args.smoke)
                            for n in names},
        "repro_env_seen": seen, "repro_env_cleared": sorted(seen),
        "child_hash_seed": HASH_SEED,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "python_build": list(platform.python_build()),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", "--only", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget for the untraced rounds")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"exact number of rounds (default "
                             f"{DEFAULT_REPS} without --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one cProfile-traced rep per workload")
    parser.add_argument("--smoke", action="store_true",
                        help=f"simulate {SMOKE_SCALE:g}x as long; pins "
                             f"are not checked")
    parser.add_argument("--json", metavar="PATH",
                        help="write every metric, rep and provenance here")
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or len(set(names)) != len(names):
        parser.error(f"bad --workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    return args, names


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = {} if args.smoke else load_json(os.path.join(HERE, "pins.json"))
    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"])
                 for m in bench["end_to_end"] + bench["per_layer"])
    env, seen = child_env()
    reps = collect(names, args, env)
    results = {
        name: evaluate([r for r in reps if r.workload == name],
                       pins.get(name, {}).get(str(args.seed)), units)
        for name in names}
    prov = provenance(args, names, seen)

    order = [m["name"] for m in bench["end_to_end"]] + list(EXTRA_UNITS) \
        + [m["name"] for m in bench["per_layer"]]
    for name in names:
        metrics = results[name]["metrics"]
        for metric in order:
            if metric in metrics:
                s = metrics[metric]
                print(f"{name} {metric} {fmt(s['median'])} {s['unit']} "
                      f"q1={fmt(s['q1'])} q3={fmt(s['q3'])} n={s['n']}")
    for name in names:
        res = results[name]
        state = "FAILED" if res["failed"] else \
            "all match pins" if res["pinned_digests"] else "unpinned"
        inputs = sum(d is not None for d in res["digests"])
        print(f"{name} digest {res['digests'][0]} seed={args.seed} "
              f"inputs={inputs} {state}")
        for failure in res["failures"]:
            print(f"{name} FAILED {failure}")

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        for name in names:
            if results[name]["trace"] is not None:
                path = os.path.join(OUT_DIR, f"trace_{name}.json")
                with open(path, "w") as fh:
                    json.dump({"provenance": prov, "workload": name,
                               **results[name]["trace"]}, fh, indent=1)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"schema": "perfbench/1", "provenance": prov,
                       "workloads": results}, fh, indent=1)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    out = {}
    for name in names:
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in wanted:
            s = results[name]["metrics"].get(metric["name"])
            if s is not None:
                out[prefix + metric["name"]] = {"value": s["median"],
                                                "unit": s["unit"]}
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and len(out) == len(wanted) * len(names)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
