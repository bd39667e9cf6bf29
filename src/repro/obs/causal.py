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
from array import array
from bisect import bisect_left
from itertools import accumulate, chain
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import _NONE, Span, SpanLog, Telemetry

#: Layer order for tables (totals render in this order).
LAYERS = ("host-cpu", "pcie", "nic-core", "ring", "sched-policy",
          "fault", "wait", "other")


def _layer(stage: str, where) -> str:
    """The resource layer of a stage; ``where`` (an ``rpc.*`` span's
    placement attribute) places RPC handlers."""
    if stage.startswith("rpc."):
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


def layer_of(span: Span) -> str:
    """Map one span's stage (and args) to its resource layer."""
    return _layer(span.stage, (span.args or {}).get("where"))


class RequestTrace:
    """One request's reconstructed causal trace."""

    __slots__ = ("run_label", "req", "path", "latency_ns", "blame",
                 "partial", "log")

    def __init__(self, run_label: str, req: int, path: array,
                 latency_ns: float, blame: Dict[str, float],
                 partial: bool, log: SpanLog):
        self.run_label = run_label
        self.req = req
        #: Critical path, causally ordered root -> terminal, as
        #: positions in ``log`` (see :meth:`path_spans`), valid until
        #: the log evicts more spans.
        self.path = path
        self.latency_ns = latency_ns
        #: Per-layer ns attribution along the path (sums to latency).
        self.blame = blame
        #: True when ring eviction (or stage filtering) severed part of
        #: the chain: the path covers only the surviving suffix.
        self.partial = partial
        #: The log the path's positions index: the run's own, or the
        #: renumbered copy :meth:`~repro.obs.spans.SpanLog.positions`
        #: made of it.
        self.log = log

    def path_spans(self) -> List[Span]:
        """The critical path's spans, built from the log on demand."""
        return [self.log.span_at(pos) for pos in self.path]

    def __repr__(self) -> str:
        return (f"<RequestTrace {self.run_label} req={self.req} "
                f"{self.latency_ns:.0f}ns hops={len(self.path)}"
                f"{' partial' if self.partial else ''}>")


class CausalGraph:
    """All causal graphs of one run, indexed from its span log.

    The index is positional: a span is its place in the log
    (:meth:`~repro.obs.spans.SpanLog.positions`), whose columns it
    reads directly, and every parent and link reference is resolved to
    a position once, here. It is kept in flat ``array('i')`` columns:

    - ``_pred[pos]`` and ``_child[pos]`` are a span's one predecessor
      (its parent or its link) and its one child, -1 for none. A span
      with several holds ``-2 - row`` instead, and its entries are
      ``rows[off[row]:off[row + 1]]`` of ``_pred_rows`` or
      ``_child_rows`` (their offsets in ``_pred_off``/``_child_off``).
    - Requests, in id order: ``_req_ids``, each one's root position in
      ``_roots``, and its members in record order,
      ``_members[_req_off[k]:_req_off[k + 1]]``.

    ``truncated`` counts edge references to spans no longer in the log
    (evicted from the bounded ring, or filtered): the analyzer treats
    every such edge as absent and flags the affected request partial.
    """

    def __init__(self, run):
        self.run = run
        log, first = run.spans.positions()
        self._log = log
        n = len(log)
        stop = first + n
        parents = log._parent
        reqs = log._req
        links = log._links
        link_base = log._links_base
        pred = array("i", [-1]) * n
        child = array("i", [-1]) * n
        # Entries beyond a span's first predecessor / first child, as
        # (span, entry) pairs.
        more_preds, more_children = [], []
        severed = []  # one entry per reference to a span not in the log
        members = {}  # request id -> member positions, in record order
        lo = log._link_off[0] - link_base
        for pos, parent, req, hi in zip(range(n), parents, reqs,
                                        log._link_off[1:]):
            hi -= link_base
            if hi > lo:
                ids = links[lo:hi]
                if parent != _NONE:
                    ids = (parent, *ids)
            else:
                ids = (parent,) if parent != _NONE else ()
            lo = hi
            if ids:
                has_pred = False
                for sid in ids:
                    if not first <= sid < stop:
                        severed.append(pos)
                        continue
                    at = sid - first
                    if has_pred:
                        more_preds.append((pos, at))
                    else:
                        pred[pos] = at
                        has_pred = True
                    if child[at] < 0:
                        child[at] = pos
                    else:
                        more_children.append((at, pos))
            if req != _NONE:
                mine = members.get(req)
                if mine is None:
                    members[req] = [pos]
                else:
                    mine.append(pos)
        self.truncated = len(severed)
        self._severed = set(severed)
        self._partial_reqs = {reqs[pos] for pos in self._severed}
        self._partial_reqs.discard(_NONE)
        self._pred, self._pred_rows, self._pred_off = \
            _with_rows(pred, more_preds)
        self._child, self._child_rows, self._child_off = \
            _with_rows(child, more_children)
        req_ids = sorted(members)
        rows = [members[req] for req in req_ids]
        del members
        roots = []
        for req, row in zip(req_ids, rows):
            # Root: the earliest span of the request with no surviving
            # parent (the minted root, or the surviving suffix head
            # after eviction severed the chain; _NONE is below every id).
            for pos in row:
                if not first <= parents[pos] < stop:
                    break
            else:
                # Pure cycle through links (never produced by the
                # instrumentation, but never crash): take the first
                # span.
                pos = row[0]
                self._partial_reqs.add(req)
            roots.append(pos)
        self._req_ids = array("q", req_ids)
        self._roots = array("i", roots)
        self._req_off = array("i", accumulate(map(len, rows), initial=0))
        self._members = array("i", chain.from_iterable(rows))
        # Each stage's layer, or None for ``rpc.*`` stages, whose layer
        # depends on the span's ``where`` attribute.
        self._stage_layers = [
            None if name.startswith("rpc.") else _layer(name, None)
            for name in log._stage_names]

    def request_ids(self) -> List[int]:
        return self._req_ids.tolist()

    def trace(self, req: int) -> Optional[RequestTrace]:
        """Reconstruct one request's critical path and blame."""
        req_ids = self._req_ids
        k = bisect_left(req_ids, req)
        if k == len(req_ids) or req_ids[k] != req:
            return None
        return self._trace(k)

    def traces(self) -> List[RequestTrace]:
        return [self._trace(k) for k in range(len(self._req_ids))]

    def _trace(self, k: int) -> RequestTrace:
        """The trace of the ``k``-th request in id order."""
        log = self._log
        begins = log._begin
        ends = log._end
        sids = log._sid
        root = self._roots[k]
        req = self._req_ids[k]
        # Forward reachability from the root bounds the terminal
        # choice: a batch span may link spans of *other* requests into
        # its subtree, so the terminal must both carry this request id
        # and be causally downstream of this root.
        child = self._child
        child_rows = self._child_rows
        child_off = self._child_off
        reachable = set()
        stack = [root]
        while stack:
            pos = stack.pop()
            if pos in reachable:
                continue
            reachable.add(pos)
            nxt = child[pos]
            if nxt >= 0:
                stack.append(nxt)
            elif nxt != -1:
                row = -2 - nxt
                stack.extend(child_rows[child_off[row]:child_off[row + 1]])
        # The terminal is the reachable span that finished last (ties:
        # the larger span id). The root itself is reachable, so there
        # always is one. The same pass collects the request's
        # ``sched.queue`` intervals, reachable or not; an open span
        # (NaN end) counts as ending where it began.
        queue = log._stage_index.get("sched.queue", -1)
        stages = log._stage
        queued = []
        terminal = -1
        for pos in self._members[self._req_off[k]:self._req_off[k + 1]]:
            end = ends[pos]
            if end != end:
                end = begins[pos]
            if stages[pos] == queue:
                queued.append((begins[pos], end))
            if pos not in reachable:
                continue
            if (terminal < 0 or end > best_end
                    or (end == best_end and sids[pos] > sids[terminal])):
                terminal, best_end = pos, end
        # Walk back from the terminal, always via the predecessor that
        # finished last (the binding dependency; ties again go to the
        # larger span id) -- but only through spans reachable from
        # this request's root: batch spans fan in edges from *other*
        # requests' chains, and following those would splice a
        # stranger's history into this path.
        pred = self._pred
        pred_rows = self._pred_rows
        pred_off = self._pred_off
        severed = self._severed
        partial = req in self._partial_reqs
        cursor = terminal
        path = array("i", [terminal])
        seen = {cursor}
        while True:
            if cursor in severed:
                partial = True
            ref = pred[cursor]
            if ref >= 0:
                # One predecessor: it is the binding one if eligible.
                if ref in seen or ref not in reachable:
                    break
                cursor = ref
            elif ref == -1:
                break
            else:
                row = -2 - ref
                best = -1
                for pos in pred_rows[pred_off[row]:pred_off[row + 1]]:
                    if pos in seen or pos not in reachable:
                        continue
                    end = ends[pos]
                    if end != end:
                        end = begins[pos]
                    if (best < 0 or end > best_end
                            or (end == best_end and sids[pos] > sids[best])):
                        best, best_end = pos, end
                if best < 0:
                    break
                cursor = best
            seen.add(cursor)
            path.append(cursor)
        path.reverse()
        end = ends[terminal]
        if end != end:
            end = begins[terminal]
        latency = max(0.0, end - begins[path[0]])
        return RequestTrace(self.run.label, req, path, latency,
                            self._blame(path, queued), partial, log)

    def _blame(self, path: array,
               queued: List[Tuple[float, float]]) -> Dict[str, float]:
        """Attribute the path's elapsed time to layers.

        A sequential sweep along the causally ordered path: each span
        is charged only for the part of its interval beyond the time
        already accounted for (overlapping retro-spans such as
        ``sched.queue`` never double-count), and gaps no span covers go
        to ``wait`` -- except the part of a gap overlapping the
        request's own ``sched.queue`` interval, which is time spent
        awaiting a scheduling decision and is charged to
        ``sched-policy``.
        """
        log = self._log
        begins = log._begin
        ends = log._end
        stages = log._stage
        stage_layers = self._stage_layers
        blame: Dict[str, float] = {}
        cursor = begins[path[0]]
        for pos in path:
            begin = begins[pos]
            end = ends[pos]
            if end != end:
                end = begin
            if begin > cursor:
                remaining = begin - cursor
                if queued:
                    covered = 0.0
                    for qb, qe in queued:
                        covered += max(0.0, min(begin, qe) - max(cursor, qb))
                    covered = min(covered, remaining)
                    if covered:
                        blame["sched-policy"] = (
                            blame.get("sched-policy", 0.0) + covered)
                        remaining -= covered
                if remaining:
                    blame["wait"] = blame.get("wait", 0.0) + remaining
                cursor = begin
            if end > cursor:
                stage = stages[pos]
                layer = stage_layers[stage] or _layer(
                    log._stage_names[stage], log._arg(pos, "where"))
                blame[layer] = blame.get(layer, 0.0) + (end - cursor)
                cursor = end
        return blame


def _with_rows(one: array, more: List[Tuple[int, int]]
               ) -> Tuple[array, array, array]:
    """Fold ``more``, the (span, entry) pairs beyond each span's first
    entry in ``one``, into rows: a span with several entries gets
    ``one[span] = -2 - row`` and row ``row`` lists all of them."""
    rows = array("i")
    off = array("i", [0])
    more.sort()
    last = -1
    for pos, entry in more:
        if pos != last:
            if last != -1:
                off.append(len(rows))
            rows.append(one[pos])
            one[pos] = -1 - len(off)
            last = pos
        rows.append(entry)
    if last != -1:
        off.append(len(rows))
    return one, rows, off


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
    for span in rep.path_spans():
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
    with_ids = sum(run.spans.identified() for run in telemetry.runs)
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
