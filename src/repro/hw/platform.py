"""Assembles one simulated machine: host CPU + SmartNIC + interconnect."""

from __future__ import annotations

from repro.hw.cpu import HostCpu
from repro.hw.nic import SmartNic
from repro.hw.params import HwParams
from repro.hw.pcie import Interconnect
from repro.sim import Environment


class Machine:
    """One server as deployed in the paper's testbed (section 7).

    Building a machine installs the partitioned parallel-DES engine on
    ``env`` (host / interconnect / NIC domains with lookahead windows
    from this deployment's Table 2 minima -- see
    ``repro.sim.partition``) unless the environment already carries
    scheduled events or an engine, ``use_partition=False`` is passed,
    ``REPRO_NO_PARTITION`` is set, or the parameter set yields a
    zero-lookahead plan; in every fallback case the serial single-queue
    kernel runs, with byte-identical results.
    """

    def __init__(self, env: Environment, params: HwParams = None,
                 use_partition: bool = None):
        self.env = env
        self.params = params or HwParams.pcie()
        self.interconnect = Interconnect(self.params, env=env)
        if env.partition is None and env.fresh:
            env.enable_partition(self.interconnect.partition_plan(),
                                 use_partition=use_partition)
        self.host = HostCpu(env, self.params)
        self.nic = SmartNic(env, self.params, self.interconnect)

    @classmethod
    def default(cls, env: Environment) -> "Machine":
        """The paper's testbed: PCIe-attached Mount Evans, Zen3 host."""
        return cls(env, HwParams.pcie())

    @classmethod
    def upi(cls, env: Environment, nic_ghz: float = 3.0) -> "Machine":
        """Section 7.3.3's UPI-attached emulated SmartNIC."""
        return cls(env, HwParams.upi(nic_ghz=nic_ghz))
