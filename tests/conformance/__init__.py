"""Cross-engine kernel conformance suite.

The simulation kernel ships interchangeable engines -- the serial
heap + timer wheel kernel and the partitioned parallel-DES engine
(``repro.sim.partition``) -- diffed against a heap-only serial kernel
(``Environment(use_wheel=False)``) kept as the reference. Every engine
must produce *identical observable behaviour*: the same
``(time, priority, seq)`` dispatch order, the same timestamps and
values, the same ``_seq`` stream and ``events_dispatched`` count.
(Admission counters -- ``events_scheduled``, ``timers_coalesced``,
wheel diagnostics -- are queue-mechanism-dependent and excluded.)

``engines.py`` enumerates the engine configurations;
``test_kernel_conformance.py`` drives a hypothesis-generated program
(schedule / cancel / poll re-arm / same-turn cascades / interrupts /
cross-domain sends) through every configuration and asserts the logs
are equal; ``test_cross_domain_rearm.py`` pins the staged-dispatch +
re-arm interleavings across domain boundaries (the stale-seq bug class
PR 5's review exposed, now with multiple queues in play).
"""
