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
from collections import Counter
from functools import reduce
from itertools import accumulate, chain, count, islice, repeat
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import _NONE, Span, SpanLog, Telemetry, _where

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

    Building it keeps no Python object per span or member: the request
    index is sized by one counting pass and filled in place, and the
    few extra edges wait in parallel ``array('i')`` columns until they
    are folded into rows.

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
        # Requests in id order; request k's members fill
        # ``members[req_off[k]:req_off[k + 1]]`` in record order, and
        # ``fill`` holds each request's next free slot.
        sizes = Counter(reqs)
        sizes.pop(_NONE, None)
        req_ids = sorted(sizes)
        req_off = array("i", accumulate(map(sizes.__getitem__, req_ids),
                                        initial=0))
        del sizes
        fill = dict(zip(req_ids, req_off))
        members = array("i", bytes(4 * req_off[-1]))
        # Entries beyond a span's first predecessor / first child, as
        # parallel (span, entry) columns.
        more_preds, pred_entries = array("i"), array("i")
        more_children, child_entries = array("i"), array("i")
        severed = []  # one entry per reference to a span not in the log
        lo = log._link_off[0] - link_base
        for pos, parent, req, hi in zip(count(), parents, reqs,
                                        islice(log._link_off, 1, None)):
            hi -= link_base
            if hi > lo:
                ids = links[lo:hi]
                lo = hi
                if parent != _NONE:
                    ids = (parent, *ids)
                has_pred = False
                for sid in ids:
                    if not first <= sid < stop:
                        severed.append(pos)
                        continue
                    at = sid - first
                    if has_pred:
                        more_preds.append(pos)
                        pred_entries.append(at)
                    else:
                        pred[pos] = at
                        has_pred = True
                    if child[at] < 0:
                        child[at] = pos
                    else:
                        more_children.append(at)
                        child_entries.append(pos)
            elif parent != _NONE:
                # Most spans: one parent and no links.
                if first <= parent < stop:
                    at = parent - first
                    pred[pos] = at
                    if child[at] < 0:
                        child[at] = pos
                    else:
                        more_children.append(at)
                        child_entries.append(pos)
                else:
                    severed.append(pos)
            if req != _NONE:
                slot = fill[req]
                members[slot] = pos
                fill[req] = slot + 1
        del fill
        self.truncated = len(severed)
        self._severed = set(severed)
        self._partial_reqs = {reqs[pos] for pos in self._severed}
        self._partial_reqs.discard(_NONE)
        self._pred, self._pred_rows, self._pred_off = \
            _with_rows(pred, more_preds, pred_entries)
        self._child, self._child_rows, self._child_off = \
            _with_rows(child, more_children, child_entries)
        roots = array("i", bytes(4 * len(req_ids)))
        for k, req in enumerate(req_ids):
            # Root: the earliest span of the request with no surviving
            # parent (the minted root, or the surviving suffix head
            # after eviction severed the chain; _NONE is below every id).
            row = members[req_off[k]:req_off[k + 1]]
            for pos in row:
                if not first <= parents[pos] < stop:
                    break
            else:
                # Pure cycle through links (never produced by the
                # instrumentation, but never crash): take the first
                # span.
                pos = row[0]
                self._partial_reqs.add(req)
            roots[k] = pos
        self._req_ids = array("q", req_ids)
        self._roots = roots
        self._req_off = req_off
        self._members = members
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

    def columns(self) -> "RequestColumns":
        """Every request's latency, partial flag and blame, as columns
        in id order: what the reports read of this run."""
        n = len(self._req_ids)
        latency = array("d", bytes(8 * n))
        partial = array("b", bytes(n))
        blame: Dict[str, array] = {}
        for k in range(n):
            _, latency[k], charged, partial[k] = self._walk(k)
            for layer, ns in charged.items():
                column = blame.get(layer)
                if column is None:
                    column = blame[layer] = array("d", bytes(8 * n))
                column[k] = ns
        return RequestColumns(self._req_ids, latency, partial, blame,
                              self.truncated)

    def _trace(self, k: int) -> RequestTrace:
        """The trace of the ``k``-th request in id order."""
        path, latency, blame, partial = self._walk(k)
        return RequestTrace(self.run.label, self._req_ids[k], path,
                            latency, blame, partial, self._log)

    def _walk(self, k: int) -> Tuple[array, float, Dict[str, float], bool]:
        """The ``k``-th request's ``(path, latency_ns, blame,
        partial)``, as :class:`RequestTrace` holds them."""
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
        return path, latency, self._blame(path, queued), partial

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


def _with_rows(one: array, spans: array, entries: array
               ) -> Tuple[array, array, array]:
    """Fold the entries beyond each span's first one (``entries[i]``
    of ``spans[i]``; the first is ``one[span]``) into rows, in (span,
    entry) order: a span with several entries gets ``one[span] = -2 -
    row``, and row ``row`` lists all of them, the first one first."""
    rows = array("i")
    off = array("i", [0])
    n = len(one)
    last = -1
    # Each pair travels through the sort as one int, span * n + entry.
    for key in sorted(map(operator.add,
                          map(operator.mul, spans, repeat(n)), entries)):
        pos, entry = divmod(key, n)
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


class RequestColumns:
    """One run's causal pass, as columns over its requests in id order:
    all the reports read of it.

    - ``req``: the request ids, ``array('q')``;
    - ``latency_ns``: each one's end-to-end latency, ``array('d')``;
    - ``partial``: 1 where eviction severed its chain, ``array('b')``;
    - ``blame``: each layer some request was charged to, in the order
      the pass first charged it, mapped to an ``array('d')`` of the ns
      each request was charged there (0.0 for none; a charge is never
      0.0, so a sum over a column is the sum over the charges);
    - ``truncated``: the run's severed edge references.

    A request's path is not kept: :meth:`CausalGraph.trace` walks it
    again when a report renders it.
    """

    __slots__ = ("req", "latency_ns", "partial", "blame", "truncated")

    def __init__(self, req: array, latency_ns: array, partial: array,
                 blame: Dict[str, array], truncated: int):
        self.req = req
        self.latency_ns = latency_ns
        self.partial = partial
        self.blame = blame
        self.truncated = truncated


def request_traces(telemetry: Telemetry) -> Tuple[List[RequestTrace], int]:
    """Every run's request traces (run order, then request id), plus
    the total count of truncated edge references.

    The traces are built on every call and not memoized (reports read
    :class:`RequestColumns` instead); each run's graph is reused while
    it is the one its hub keeps (:func:`_graph`).
    """
    traces: List[RequestTrace] = []
    truncated = 0
    for run in telemetry.runs:
        graph = _graph(run)
        truncated += graph.truncated
        traces.extend(graph.traces())
    return traces, truncated


def _graph(run) -> CausalGraph:
    """``run``'s :class:`CausalGraph`, built again only when a span was
    recorded or closed since.

    A hub keeps at most one graph alive, the one built most recently:
    building one drops any other run's first, so a sweep's analysis
    holds one run's index at a time. The graph lives on the run object
    only, like the :func:`_columns` memo.
    """
    recorded = run.spans.recorded
    kept = run._graph
    if kept is not None and kept[0] == recorded:
        return kept[1]
    for other in run.hub.runs:
        other._graph = None
    graph = CausalGraph(run)
    run._graph = (recorded, graph)
    return graph


def _columns(run) -> RequestColumns:
    """One run's :class:`RequestColumns`, recomputed only when a span
    was recorded or closed, or the run relabelled, since the last pass.

    The memo lives on the run object only: shards carry the span log
    and metrics, never the run, so it is never pickled, and nothing
    digests or exports it.
    """
    key = (run.spans.recorded, run.label)
    memo = run._causal
    if memo is None or memo[0] != key:
        memo = run._causal = (key, _graph(run).columns())
    return memo[1]


def _rank(n: int, q: float) -> int:
    """Index of the exact nearest-rank ``q`` percentile among ``n``
    sorted values (no interpolation: byte-stable)."""
    return min(max(0, math.ceil(q / 100.0 * n) - 1), n - 1)


def _pct(sorted_values, q: float) -> float:
    """Exact nearest-rank percentile of sorted values (0.0 if none)."""
    if not sorted_values:
        return 0.0
    return sorted_values[_rank(len(sorted_values), q)]


def check_percentile(q: float) -> float:
    """``q``, if it is a percentile in [0, 100]; a ``ValueError`` that
    names it otherwise (NaN and infinities included)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be a finite number in "
                         f"[0, 100], got {q!r}")
    return q


class RequestTable:
    """Every request of a hub: each run with its :class:`RequestColumns`
    (run order), and all their latencies, sorted. ``len()`` counts the
    requests."""

    __slots__ = ("runs", "columns", "latencies")

    def __init__(self, telemetry: Telemetry):
        self.runs = list(telemetry.runs)
        self.columns = [_columns(run) for run in self.runs]
        self.latencies = array("d", sorted(chain.from_iterable(
            columns.latency_ns for columns in self.columns)))

    def __len__(self) -> int:
        return len(self.latencies)

    def at_rank(self, q: float) -> Tuple[object, RequestColumns, int]:
        """``(run, columns, k)``: the request at the nearest-rank ``q``
        percentile, its requests sorted by end-to-end latency, then run
        label, then request id (then run order).

        Only the requests whose latency ties with that rank's are
        sorted by the full key.
        """
        latencies = self.latencies
        rank = _rank(len(latencies), q)
        latency = latencies[rank]
        ties = []
        for i, (run, columns) in enumerate(zip(self.runs, self.columns)):
            req = columns.req
            ties.extend((run.label, req[k], i, k)
                        for k in _where(columns.latency_ns, latency))
        ties.sort()
        _, _, i, k = ties[rank - bisect_left(latencies, latency)]
        return self.runs[i], self.columns[i], k


def _charged(rep: Tuple[object, RequestColumns, int], layer: str) -> float:
    """The ns ``layer`` charged the request ``rep`` names."""
    _, columns, k = rep
    column = columns.blame.get(layer)
    return 0.0 if column is None else column[k]


def blame_table(telemetry: Telemetry):
    """Per-layer latency decomposition across all traced requests.

    Returns ``(rows, requests, truncated)``: ``requests`` is the hub's
    :class:`RequestTable`, and each row is ``(layer, mean_ns, share,
    p50_ns, p95_ns, p99_ns)``: the mean is over all requests, and the
    percentile columns decompose the requests *at* those latency
    percentiles -- a Table 3-style "where does the p99 request spend
    its time" read, straight from the trace.
    """
    requests = RequestTable(telemetry)
    truncated = sum(columns.truncated for columns in requests.columns)
    n = len(requests)
    if not n:
        return [], requests, truncated
    reps = [requests.at_rank(q) for q in (50.0, 95.0, 99.0)]
    sums: Dict[str, float] = {}
    for columns in requests.columns:
        for layer, column in columns.blame.items():
            # Left to right, one float addition per request (not sum(),
            # which compensates since Python 3.12): the additions of
            # summing each request's charges in run order, then id order.
            sums[layer] = reduce(operator.add, column, sums.get(layer, 0.0))
    grand = sum(sums.values()) or 1.0
    rows = []
    layers = [layer for layer in LAYERS if layer in sums]
    layers += sorted(set(sums) - set(LAYERS))
    for layer in layers:
        rows.append((layer, sums[layer] / n, sums[layer] / grand,
                     *[_charged(rep, layer) for rep in reps]))
    return rows, requests, truncated


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
    rows, requests, truncated = table
    if not requests:
        return []
    out = ["## Causal request blame", ""]
    latencies = requests.latencies
    partial = sum(columns.partial.count(1) for columns in requests.columns)
    out.append(f"- requests traced: {len(requests)}")
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


def critical_path_section(requests: RequestTable,
                          q: float = 99.0) -> List[str]:
    """Markdown lines walking the critical path of the request at the
    ``q`` latency percentile (``requests`` is :func:`blame_table`'s).
    Only that request's path is walked."""
    if not requests:
        return []
    run, _, k = requests.at_rank(q)
    rep = _graph(run)._trace(k)
    out = [f"## Critical path of the p{q:g} request "
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
    """The full ``python -m repro analyze`` Markdown report; a
    ``percentile`` outside [0, 100] raises ``ValueError``."""
    check_percentile(percentile)
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
           "RequestColumns", "RequestTable", "check_percentile",
           "request_traces", "blame_table", "causal_section",
           "critical_path_section", "partition_section",
           "analyze_report"]
