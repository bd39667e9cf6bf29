"""The Stubby-like RPC stack (paper section 4.3).

A pool of stack processors performs TCP processing, RPC parsing,
serialization, and steering for each request and response. The pool
runs either on dedicated host cores (vanilla Stubby: 8 host cores) or
on SmartNIC ARM cores (offloaded; slower per-request but free of host
cores). Requests are handed to a ``submit`` generator (the scheduler
path); responses come back through :meth:`respond`.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.hw.platform import Machine
from repro.sim import Environment, Store

#: Host-core cost of TCP + RPC processing for one small request.
#: [fit: Stubby/gRPC process small RPCs in "a few us" (section 4.3);
#: 8 host cores handle the Fig 6 load with headroom]
REQUEST_PROC_NS = 2_000.0
#: Host-core cost of serializing + transmitting one response.
RESPONSE_PROC_NS = 1_500.0


class StackPlacement(enum.Enum):
    HOST = "host"
    NIC = "smartnic"


class RpcStack:
    """A fixed pool of RPC stack processors."""

    def __init__(self, env: Environment, machine: Machine,
                 placement: StackPlacement, n_processors: int,
                 submit: Callable, name: str = "rpc-stack",
                 request_proc_ns: float = REQUEST_PROC_NS,
                 response_proc_ns: float = RESPONSE_PROC_NS):
        if n_processors <= 0:
            raise ValueError("need at least one stack processor")
        self.env = env
        self.machine = machine
        self.placement = placement
        self.n_processors = n_processors
        self.submit = submit
        self.name = name
        scale = (machine.nic.compute_time(1.0)
                 if placement is StackPlacement.NIC else 1.0)
        self.request_proc_ns = request_proc_ns * scale
        self.response_proc_ns = response_proc_ns * scale
        self._work: Store = Store(env)
        self.requests_processed = 0
        self.responses_processed = 0
        self.busy_ns = 0.0

    def start(self) -> None:
        home = ("nic" if self.placement is StackPlacement.NIC else "host")
        with self.env.domain(home):
            for i in range(self.n_processors):
                self.env.process(self._processor(), name=f"{self.name}-{i}")

    # -- ingress / egress ---------------------------------------------------

    def deliver(self, request) -> None:
        """A packet arrived from the wire (steered here by RSS or the
        SmartNIC network function)."""
        self._work.put(("request", request))

    def respond(self, request) -> None:
        """The application finished; send the response out."""
        self._work.put(("response", request))

    # -- the processor loop ----------------------------------------------------

    def _processor(self):
        env = self.env
        track = f"rpc:{self.name}"
        while True:
            kind, request = yield self._work.get()
            tel = env.telemetry
            if kind == "request":
                yield env.timeout(self.request_proc_ns)
                self.busy_ns += self.request_proc_ns
                self.requests_processed += 1
                if tel is not None:
                    # An RPC arrival is a designated causal root: it
                    # mints the request context the rest of the chain
                    # (submit -> ring -> agent -> dispatch -> run ->
                    # response) inherits.
                    span = tel.span("rpc.request", track,
                                    dur_ns=self.request_proc_ns,
                                    ctx=getattr(request, "ctx", None),
                                    root=True,
                                    where=self.placement.value)
                    request.ctx = tel.ctx_after(span)
                    tel.count("rpc_msgs", kind="request")
                yield from self.submit(request)
            else:
                yield env.timeout(self.response_proc_ns)
                self.busy_ns += self.response_proc_ns
                self.responses_processed += 1
                # Response hits the wire: end-to-end latency stops here.
                request.completed_ns = env.now
                if tel is not None:
                    span = tel.span("rpc.response", track,
                                    dur_ns=self.response_proc_ns,
                                    ctx=getattr(request, "ctx", None),
                                    where=self.placement.value)
                    request.ctx = tel.ctx_after(span)
                    tel.count("rpc_msgs", kind="response")

    def utilization(self, window_ns: float) -> float:
        """Fraction of pool capacity consumed over ``window_ns``."""
        return self.busy_ns / (self.n_processors * window_ns)
