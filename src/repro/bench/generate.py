"""Regenerate EXPERIMENTS.md from the benchmark harness.

Usage::

    python -m repro.bench.generate [--fast] [--jobs N] [output-path]

Runs every table/figure experiment and writes the paper-vs-measured
record. ``--fast`` uses the short CI parameter sets (minutes);
otherwise the full parameter sets run (tens of minutes). ``--jobs N``
fans each experiment's independent load points across a process pool
(N < 0 uses every core); the output is byte-identical at any value.
"""

from __future__ import annotations

import inspect
import sys
import time

from repro.bench import (
    faults,
    fig4_fifo,
    fig4_shinjuku,
    fig5_vm,
    fig6_rpc,
    mem_policies,
    opt_breakdown,
    sol_footprint,
    sol_table,
    table2_hw,
    table3_sched,
    upi_bench,
)

MODULES = (
    table2_hw,
    table3_sched,
    fig4_fifo,
    opt_breakdown,
    fig4_shinjuku,
    fig5_vm,
    fig6_rpc,
    upi_bench,
    sol_table,
    sol_footprint,
    mem_policies,
    faults,
)

HEADER = """\
# EXPERIMENTS: paper vs. measured

Generated by ``python -m repro.bench.generate{fast_flag}``. Every table
and figure from the paper's evaluation (section 7), reproduced on the
simulator. Absolute throughput/latency values come from the calibrated
machine model, not the authors' testbed; the reproduction targets are
the *shapes*: who wins, by roughly what factor, and where crossovers
fall. Known deviations are listed at the bottom.

"""

DEVIATIONS = """
## Known deviations

- **Table 3 / section 7.2.2 tension.** The paper's unoptimized baseline
  is both agent-bound end-to-end (258k req/s) and shows a 13.3-13.5 us
  context-switch path; a single agent-side cost split cannot produce
  both exactly. The compromise here keeps every row ordered correctly,
  the context-switch rows within ~15% of the paper's ranges, and the
  ladder's dominant effect (the agent-side WB fix) in place; the
  baseline end-to-end saturation lands ~20-30% under the paper's.
- **Fig 4b Wave-15 lands at -4 to -6% (paper -7.6%).** The offloaded
  preemption penalty (`wave_preempt_extra`) was fitted conservatively;
  the ordering (Wave-15 < On-Host ~ Wave-16) reproduces.
- **SOL durations at low core counts run up to ~25% high for Wave.**
  The serial + parallel/n decomposition slightly over-serializes the
  2-4-core points; the 1- and 16-core anchors and the Wave/on-host
  ratios reproduce.
- **Section 7.3.3's frequency ladder is flat here (~2-4% at every
  cap) rather than 1.3 -> 3.5%.** In this model the scheduling agent
  never becomes the bottleneck at these loads, so the emulated
  SmartNIC's clock moves saturation by less than knee-detection noise.
  The magnitude ("offload costs a few percent"), the sign, and
  UPI-beats-PCIe all reproduce; the PCIe gap is larger than the
  paper's 0.9% because our PCIe worker-side MMIO costs are calibrated
  to Fig 6's apples-to-apples rows.
- **Fig 6b Offload-All on 15 cores reads about -0.1% under `--fast`
  (paper -7.4%).** The fast 6b sweep steps from 210k to 230k req/s, a
  9.5% step, wider than both of the paper's 6b gaps (-2.2% on 16
  cores, -7.4% on 15). The 15-core and 16-core Offload-All points both
  pass the 230k rung, so this grid cannot tell 15 cores from 16; only
  the ordering (15 cores below On-Host-All) is checked.
"""


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    fast = "--fast" in argv
    argv = [a for a in argv if a != "--fast"]
    jobs = None
    if "--jobs" in argv:
        idx = argv.index("--jobs")
        jobs = int(argv[idx + 1])
        del argv[idx:idx + 2]
    out_path = argv[0] if argv else "EXPERIMENTS.md"

    sections = [HEADER.format(fast_flag=" --fast" if fast else "")]
    for module in MODULES:
        name = module.__name__.rsplit(".", 1)[-1]
        started = time.time()
        print(f"running {name} (fast={fast}) ...", flush=True)
        kwargs = {"fast": fast}
        if jobs is not None and "jobs" in inspect.signature(module.run).parameters:
            kwargs["jobs"] = jobs
        report = module.run(**kwargs)
        elapsed = time.time() - started
        sections.append(f"## {report.experiment_id}: {report.title}\n")
        sections.append("```")
        sections.append(report.render())
        sections.append("```")
        sections.append(f"_(generated in {elapsed:.0f}s wall time)_\n")
    sections.append(DEVIATIONS)
    with open(out_path, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
