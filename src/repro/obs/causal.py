"""Causal graph reconstruction and critical-path blame analysis.

Spans carry identity (:attr:`~repro.obs.spans.Span.span_id`), edges
(``parent_id`` + ``links``), and a request id (``req``) minted at each
causal root (ghost txn commit, RPC request arrival, DMA op, fault
fire).  This module turns one run's :class:`~repro.obs.spans.SpanLog`
back into per-request causal graphs, extracts each request's critical
path, and attributes the end-to-end latency to resource layers the way
the paper's Table 3 decomposes a scheduling decision:

- ``host-cpu``  -- host kernel + worker-core stages (``task.*``,
  ``core.*``, ``sched.submit``, host-placed ``rpc.*``),
- ``pcie``      -- interconnect crossings (``msix.*``, ``dma.*``),
- ``nic-core``  -- agent/SOL work on the SmartNIC ARM cores
  (``agent.*``, ``sol.*``, NIC-placed ``rpc.*``),
- ``ring``      -- shared queue batch costs (``ring.*``, ``dmaq.*``),
- ``sched-policy`` -- time queued awaiting a scheduling decision
  (``sched.queue``),
- ``fault``     -- fault-injection and recovery stages (``fault.*``),
- ``wait``      -- gaps on the critical path no span explains.

The analysis is **read-only**: it never touches the metrics registry
(telemetry digests must not depend on whether an analysis ran) and it
degrades gracefully when the bounded span ring evicted part of a chain
-- severed references are counted (``causal.truncated``), the affected
path is flagged ``partial``, and no lookup ever raises.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import Span, Telemetry

#: Layer order for tables (totals render in this order).
LAYERS = ("host-cpu", "pcie", "nic-core", "ring", "sched-policy",
          "fault", "wait", "other")


def layer_of(span: Span) -> str:
    """Map one span's stage (and args) to its resource layer."""
    stage = span.stage
    if stage.startswith("rpc."):
        where = (span.args or {}).get("where")
        return "nic-core" if where == "smartnic" else "host-cpu"
    if stage == "sched.queue":
        return "sched-policy"
    if stage.startswith(("task.", "core.", "sched.")):
        return "host-cpu"
    if stage.startswith(("msix.", "dma.")):
        return "pcie"
    if stage.startswith(("agent.", "sol.")):
        return "nic-core"
    if stage.startswith(("ring.", "dmaq.")):
        return "ring"
    if stage.startswith("fault."):
        return "fault"
    return "other"


class RequestTrace:
    """One request's reconstructed causal trace."""

    __slots__ = ("run_label", "req", "path", "latency_ns", "blame",
                 "partial")

    def __init__(self, run_label: str, req: int, path: List[Span],
                 latency_ns: float, blame: Dict[str, float],
                 partial: bool):
        self.run_label = run_label
        self.req = req
        #: Critical path, causally ordered root -> terminal.
        self.path = path
        self.latency_ns = latency_ns
        #: Per-layer ns attribution along the path (sums to latency).
        self.blame = blame
        #: True when ring eviction (or stage filtering) severed part of
        #: the chain: the path covers only the surviving suffix.
        self.partial = partial

    def __repr__(self) -> str:
        return (f"<RequestTrace {self.run_label} req={self.req} "
                f"{self.latency_ns:.0f}ns hops={len(self.path)}"
                f"{' partial' if self.partial else ''}>")


class CausalGraph:
    """All causal graphs of one run, indexed from its span log.

    ``truncated`` counts edge references to spans no longer in the log
    (evicted from the bounded ring, or filtered): the analyzer treats
    every such edge as absent and flags the affected request partial.
    """

    def __init__(self, run):
        self.run = run
        self.by_id: Dict[int, Span] = {}
        self.children: Dict[int, List[int]] = {}
        self.requests: Dict[int, List[Span]] = {}
        self.truncated = 0
        self._partial_reqs = set()
        #: Each request's ``sched.queue`` intervals, in record order.
        self._queued: Dict[int, List[Tuple[float, float]]] = {}
        by_id = self.by_id
        children = self.children
        # One pass in record order. A predecessor is normally recorded
        # before its successor; a reference to a span not indexed yet
        # is settled after the pass, so a later span can still satisfy
        # it.
        pending: List[Tuple[int, Span]] = []
        for span in run.spans:
            sid = span.span_id
            if sid is None:
                continue
            by_id[sid] = span
            req = span.req
            if req is not None:
                self.requests.setdefault(req, []).append(span)
                if span.stage == "sched.queue":
                    end = span.end_ns
                    self._queued.setdefault(req, []).append(
                        (span.begin_ns,
                         end if end is not None else span.begin_ns))
            parent = span.parent_id
            if parent is not None:
                if parent in by_id:
                    children.setdefault(parent, []).append(sid)
                else:
                    pending.append((parent, span))
            if span.links:
                for link in span.links:
                    if link in by_id:
                        children.setdefault(link, []).append(sid)
                    else:
                        pending.append((link, span))
        for pred, span in pending:
            if pred in by_id:
                children.setdefault(pred, []).append(span.span_id)
            else:
                self.truncated += 1
                if span.req is not None:
                    self._partial_reqs.add(span.req)

    def request_ids(self) -> List[int]:
        return sorted(self.requests)

    def trace(self, req: int) -> Optional[RequestTrace]:
        """Reconstruct one request's critical path and blame."""
        spans = self.requests.get(req)
        if not spans:
            return None
        by_id = self.by_id
        partial = req in self._partial_reqs
        # Root: the earliest span of the request with no surviving
        # parent (the minted root, or the surviving suffix head after
        # eviction severed the chain).
        root = None
        for span in spans:
            if (span.parent_id is None
                    or span.parent_id not in by_id):
                root = span
                break
        if root is None:
            # Pure cycle through links (never produced by the
            # instrumentation, but never crash): take the first span.
            root = spans[0]
            partial = True
        # Forward reachability from the root bounds the terminal
        # choice: a batch span may link spans of *other* requests into
        # its subtree, so the terminal must both carry this request id
        # and be causally downstream of this root.
        children = self.children
        reachable = set()
        stack = [root.span_id]
        while stack:
            sid = stack.pop()
            if sid in reachable:
                continue
            reachable.add(sid)
            stack.extend(children.get(sid, ()))
        # The terminal is the reachable span that finished last (ties:
        # the later-recorded one). The root itself is reachable, so
        # there always is one.
        terminal = None
        best_end = best_sid = None
        for span in spans:
            sid = span.span_id
            if sid not in reachable:
                continue
            end = span.end_ns
            if end is None:
                end = span.begin_ns
            if (terminal is None or end > best_end
                    or (end == best_end and sid > best_sid)):
                terminal, best_end, best_sid = span, end, sid
        # Walk back from the terminal, always via the predecessor that
        # finished last (the binding dependency; ties again go to the
        # later-recorded span) -- but only through spans reachable from
        # this request's root: batch spans fan in edges from *other*
        # requests' chains, and following those would splice a
        # stranger's history into this path.
        path = [terminal]
        seen = {terminal.span_id}
        cursor = terminal
        while True:
            best = None
            parent = cursor.parent_id
            if parent is not None:
                pred = by_id.get(parent)
                if pred is None:
                    partial = True
                elif parent not in seen and parent in reachable:
                    best, best_sid = pred, parent
                    best_end = pred.end_ns
                    if best_end is None:
                        best_end = pred.begin_ns
            if cursor.links:
                for link in cursor.links:
                    pred = by_id.get(link)
                    if pred is None:
                        partial = True
                        continue
                    if link in seen or link not in reachable:
                        continue
                    end = pred.end_ns
                    if end is None:
                        end = pred.begin_ns
                    if (best is None or end > best_end
                            or (end == best_end and link > best_sid)):
                        best, best_end, best_sid = pred, end, link
            if best is None:
                break
            cursor = best
            seen.add(best_sid)
            path.append(best)
        path.reverse()
        end = terminal.end_ns if terminal.end_ns is not None \
            else terminal.begin_ns
        latency = max(0.0, end - path[0].begin_ns)
        return RequestTrace(self.run.label, req, path, latency,
                            _blame_of(path, self._queued.get(req)),
                            partial)

    def traces(self) -> List[RequestTrace]:
        out = []
        for req in self.request_ids():
            trace = self.trace(req)
            if trace is not None:
                out.append(trace)
        return out


def _blame_of(path: List[Span],
              queued: Optional[List[Tuple[float, float]]] = None
              ) -> Dict[str, float]:
    """Attribute the path's elapsed time to layers.

    A sequential sweep along the causally ordered path: each span is
    charged only for the part of its interval beyond the time already
    accounted for (overlapping retro-spans such as ``sched.queue``
    never double-count), and gaps no span covers go to ``wait`` --
    except the part of a gap overlapping the request's own
    ``sched.queue`` interval, which is time spent awaiting a scheduling
    decision and is charged to ``sched-policy``.
    """
    blame: Dict[str, float] = {}
    cursor = path[0].begin_ns
    for span in path:
        begin = span.begin_ns
        end = span.end_ns if span.end_ns is not None else begin
        if begin > cursor:
            remaining = begin - cursor
            if queued:
                covered = 0.0
                for qb, qe in queued:
                    covered += max(0.0, min(begin, qe) - max(cursor, qb))
                covered = min(covered, remaining)
                if covered:
                    blame["sched-policy"] = (blame.get("sched-policy", 0.0)
                                             + covered)
                    remaining -= covered
            if remaining:
                blame["wait"] = blame.get("wait", 0.0) + remaining
            cursor = begin
        if end > cursor:
            layer = layer_of(span)
            blame[layer] = blame.get(layer, 0.0) + (end - cursor)
            cursor = end
    return blame


def request_traces(telemetry: Telemetry) -> Tuple[List[RequestTrace], int]:
    """Every run's request traces (run order, then request id), plus
    the total count of truncated edge references.

    Each run's causal pass is memoized on the run (see
    :func:`_run_traces`), so every report rendered from one hub shares
    it. The returned list is fresh; the traces in it are shared and
    must be treated as read-only.
    """
    traces: List[RequestTrace] = []
    truncated = 0
    for run in telemetry.runs:
        run_truncated, run_traces = _run_traces(run)
        truncated += run_truncated
        traces.extend(run_traces)
    return traces, truncated


def _run_traces(run) -> Tuple[int, List[RequestTrace]]:
    """One run's ``(truncated, traces)``, recomputed only when a span
    was recorded or closed, or the run relabelled, since the last pass.

    The memo lives on the run object only: shards carry the span log
    and metrics, never the run, so it is never pickled, and nothing
    digests or exports it.
    """
    key = (run.spans.recorded, run.label)
    memo = run._causal
    if memo is None or memo[0] != key:
        graph = CausalGraph(run)
        memo = run._causal = (key, graph.truncated, graph.traces())
    return memo[1], memo[2]


#: Sort key for representatives: end-to-end latency, ties broken by run
#: label + request id.
_by_latency = operator.attrgetter("latency_ns", "run_label", "req")


def _rank(n: int, q: float) -> int:
    """Index of the exact nearest-rank ``q`` percentile among ``n``
    sorted values (no interpolation: byte-stable)."""
    return min(max(0, math.ceil(q / 100.0 * n) - 1), n - 1)


def _pct(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank percentile of sorted values (0.0 if none)."""
    if not sorted_values:
        return 0.0
    return sorted_values[_rank(len(sorted_values), q)]


def _representative(traces: List[RequestTrace],
                    q: float) -> Optional[RequestTrace]:
    """The request sitting at the nearest-rank ``q`` percentile of
    end-to-end latency."""
    if not traces:
        return None
    return sorted(traces, key=_by_latency)[_rank(len(traces), q)]


def blame_table(telemetry: Telemetry):
    """Per-layer latency decomposition across all traced requests.

    Returns ``(rows, traces, truncated)`` where each row is
    ``(layer, mean_ns, share, p50_ns, p95_ns, p99_ns)``: the mean is
    over all requests, and the percentile columns decompose the
    requests *at* those latency percentiles -- a Table 3-style "where
    does the p99 request spend its time" read, straight from the trace.
    """
    traces, truncated = request_traces(telemetry)
    if not traces:
        return [], traces, truncated
    n = len(traces)
    ordered = sorted(traces, key=_by_latency)
    p50, p95, p99 = [ordered[_rank(n, q)].blame for q in (50.0, 95.0, 99.0)]
    sums: Dict[str, float] = {}
    for trace in traces:
        for layer, ns in trace.blame.items():
            sums[layer] = sums.get(layer, 0.0) + ns
    grand = sum(sums.values()) or 1.0
    rows = []
    layers = [layer for layer in LAYERS if layer in sums]
    layers += sorted(set(sums) - set(LAYERS))
    for layer in layers:
        rows.append((layer, sums[layer] / n, sums[layer] / grand,
                     p50.get(layer, 0.0), p95.get(layer, 0.0),
                     p99.get(layer, 0.0)))
    return rows, traces, truncated


# -- rendering ---------------------------------------------------------------


def _fmt_us(ns: float) -> str:
    return f"{ns / 1e3:.2f}"


def causal_section(telemetry: Telemetry, table=None) -> List[str]:
    """Markdown lines for the causal summary (empty when no spans carry
    request identity). ``table`` is the hub's :func:`blame_table`
    result, when the caller already has it."""
    from repro.obs.report import md_table
    if table is None:
        table = blame_table(telemetry)
    rows, traces, truncated = table
    if not traces:
        return []
    out = ["## Causal request blame", ""]
    latencies = sorted([t.latency_ns for t in traces])
    partial = sum(1 for t in traces if t.partial)
    out.append(f"- requests traced: {len(traces)}")
    out.append(f"- end-to-end latency (us): "
               f"p50 {_fmt_us(_pct(latencies, 50.0))} / "
               f"p95 {_fmt_us(_pct(latencies, 95.0))} / "
               f"p99 {_fmt_us(_pct(latencies, 99.0))} / "
               f"max {_fmt_us(latencies[-1])}")
    if truncated or partial:
        out.append(f"- causal.truncated: {truncated} severed edge refs; "
                   f"{partial} partial paths (span-ring eviction)")
    out.append("")
    out.append(md_table(
        ["layer", "mean us", "share", "p50-req us", "p95-req us",
         "p99-req us"],
        [[f"`{layer}`", _fmt_us(mean), f"{share * 100:.1f}%",
          _fmt_us(p50), _fmt_us(p95), _fmt_us(p99)]
         for layer, mean, share, p50, p95, p99 in rows]))
    return out


def critical_path_section(traces: List[RequestTrace],
                          q: float = 99.0) -> List[str]:
    """Markdown lines walking the critical path of the request at the
    ``q`` latency percentile."""
    rep = _representative(traces, q)
    if rep is None:
        return []
    out = [f"## Critical path of the p{q:.0f} request "
           f"({rep.run_label}, req {rep.req}, "
           f"{_fmt_us(rep.latency_ns)} us"
           f"{', partial' if rep.partial else ''})", ""]
    for span in rep.path:
        end = span.end_ns if span.end_ns is not None else span.begin_ns
        out.append(f"- `{span.stage}` [{layer_of(span)}] on "
                   f"{span.track}: t={span.begin_ns / 1e3:.2f} us "
                   f"(+{(end - span.begin_ns) / 1e3:.2f} us)")
    return out


def partition_section(telemetry: Telemetry) -> List[str]:
    """Markdown lines for the partition observatory (empty when no run
    executed under the partitioned engine with telemetry on)."""
    from repro.obs.report import md_table
    sections: List[str] = []
    for run in telemetry.runs:
        obs = getattr(run, "partition", None)
        if obs is None or not obs.total_events:
            continue
        total_busy = sum(obs.busy_ns.values())
        lines = [f"### {run.label}", ""]
        denom = total_busy or 1.0
        lines.append(md_table(
            ["domain", "busy ms", "share", "events", "windows"],
            [[f"`{name}`", f"{obs.busy_ns[name] / 1e6:.3f}",
              f"{100.0 * obs.busy_ns[name] / denom:.1f}%",
              str(obs.events[name]), str(obs.windows[name])]
             for name in obs.names]))
        lines.append("")
        if obs.stall_counts:
            lines.append(md_table(
                ["blocker -> blocked", "stalls", "fence-gap ms",
                 "beyond-lookahead ms"],
                [[f"`{src}` -> `{dst}`",
                  str(obs.stall_counts[(src, dst)]),
                  f"{obs.stall_ns.get((src, dst), 0.0) / 1e6:.3f}",
                  f"{obs.stall_residual_ns.get((src, dst), 0.0) / 1e6:.3f}"]
                 for src, dst in sorted(obs.stall_counts)]))
            lines.append("")
        if obs.traffic:
            lines.append(md_table(
                ["src -> dst", "cross-domain sends"],
                [[f"`{src}` -> `{dst}`", str(obs.traffic[(src, dst)])]
                 for src, dst in sorted(obs.traffic)]))
            lines.append("")
        lines.append(f"- achievable speedup bound (event critical "
                     f"path): {obs.speedup_bound():.2f}x over "
                     f"{obs.total_events} events")
        lines.append(f"- busy-time bound (occupancy): "
                     f"{obs.busy_bound():.2f}x")
        sections.append("\n".join(lines))
    if not sections:
        return []
    out = ["## Partition observatory", ""]
    for section in sections:
        out.extend(section.split("\n"))
        out.append("")
    if out[-1] == "":
        out.pop()
    return out


def analyze_report(telemetry: Telemetry, title: str = "causal analysis",
                   percentile: float = 99.0) -> str:
    """The full ``python -m repro analyze`` Markdown report."""
    out: List[str] = [f"# {title}", ""]
    with_ids = 0
    for run in telemetry.runs:
        for span in run.spans:
            if span.span_id is not None:
                with_ids += 1
    out.append(f"- runs: {len(telemetry.runs)}")
    out.append(f"- spans with causal identity: {with_ids}")
    table = blame_table(telemetry)
    causal = causal_section(telemetry, table)
    if causal:
        out.append("")
        out.extend(causal)
        crit = critical_path_section(table[1], percentile)
        if crit:
            out.append("")
            out.extend(crit)
    else:
        out.append("- no request-rooted spans recorded (tracing off, "
                   "or no causal roots reached)")
    observatory = partition_section(telemetry)
    if observatory:
        out.append("")
        out.extend(observatory)
    out.append("")
    return "\n".join(out)


__all__ = ["LAYERS", "layer_of", "CausalGraph", "RequestTrace",
           "request_traces", "blame_table", "causal_section",
           "critical_path_section", "partition_section",
           "analyze_report"]
