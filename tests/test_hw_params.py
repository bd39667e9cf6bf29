"""Tests for hardware parameters and Table 2 primitives."""

import pytest

from repro.hw import HwParams, Interconnect, PteType


def test_table2_values_are_paper_values():
    params = HwParams.pcie()
    assert params.mmio_read_uc == 750.0
    assert params.mmio_write_uc == 50.0
    assert params.msix_send_reg == 70.0
    assert params.msix_send_ioctl == 340.0
    assert params.msix_receive == 350.0
    assert params.msix_e2e == 1600.0


def test_interconnect_exposes_primitives():
    link = Interconnect(HwParams.pcie())
    assert link.mmio_read() == 750.0
    assert link.mmio_write() == 50.0
    assert link.msix_send(via_ioctl=True) == 340.0
    assert link.msix_send(via_ioctl=False) == 70.0
    assert link.msix_receive() == 350.0
    assert link.msix_e2e() == 1600.0


def test_msix_propagation_consistent_with_e2e():
    link = Interconnect(HwParams.pcie())
    assert (link.msix_send(True) + link.msix_propagation()
            + link.msix_receive()) == pytest.approx(link.msix_e2e())
    assert link.msix_propagation() > 0


def test_upi_is_coherent_and_faster():
    pcie, upi = HwParams.pcie(), HwParams.upi()
    assert not pcie.coherent
    assert upi.coherent
    assert upi.mmio_read_uc < pcie.mmio_read_uc
    assert upi.mmio_write_visibility < pcie.mmio_write_visibility


def test_upi_frequency_cap():
    upi = HwParams.upi(nic_ghz=2.0)
    assert upi.nic_ghz == 2.0
    assert upi.nic_compute_handicap == 1.0  # same x86 cores


def test_host_topology_matches_testbed():
    params = HwParams.pcie()
    assert params.host_sockets == 2
    assert params.cores_per_socket == 64
    assert params.threads_per_core == 2
    assert params.cores_per_ccx == 8
    assert params.nic_cores == 16


def test_pte_semantics():
    assert PteType.WB.caches_reads
    assert PteType.WT.caches_reads
    assert not PteType.WC.caches_reads
    assert not PteType.UC.caches_reads
    assert PteType.WC.buffers_writes
    assert not PteType.UC.buffers_writes
    assert not PteType.WT.buffers_writes


# -- validation at construction ---------------------------------------------

@pytest.mark.parametrize("preset", ["pcie", "cxl", "upi"])
@pytest.mark.parametrize("ghz", [1.5, 2.0, 2.5, 3.0])
def test_every_preset_constructs(preset, ghz):
    params = (HwParams.pcie() if preset == "pcie"
              else getattr(HwParams, preset)(nic_ghz=ghz))
    # Table 2's host<->NIC minimum: the fastest hop of each preset.
    assert min(params.domain_lookahead().values()) == \
        {"pcie": 50.0, "cxl": 60.0, "upi": 70.0}[preset]


@pytest.mark.parametrize("field,value", [
    ("mmio_read_uc", -1.0),
    ("msix_receive", float("nan")),
    ("tick_cost", float("inf")),
    ("dma_timeout_ns", -float("inf")),
    ("host_ipi_e2e", -0.5),
])
def test_bad_time_or_cost_fails_at_construction(field, value):
    with pytest.raises(ValueError, match=f"HwParams.{field} must be finite "
                                         f"and non-negative"):
        HwParams(**{field: value})


@pytest.mark.parametrize("field", ["dma_bandwidth", "host_base_ghz",
                                   "host_max_ghz", "nic_ghz",
                                   "nic_reference_ghz", "smt_efficiency",
                                   "nic_compute_handicap"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_rate_or_ratio_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"HwParams.{field} must be "
                                         f"positive"):
        HwParams(**{field: value})


@pytest.mark.parametrize("field", ["host_sockets", "cores_per_socket",
                                   "threads_per_core", "cores_per_ccx",
                                   "nic_cores"])
def test_core_or_socket_count_below_one_fails(field):
    with pytest.raises(ValueError, match=f"HwParams.{field} must be at "
                                         f"least 1, got 0"):
        HwParams(**{field: 0})


def test_negative_retry_count_fails():
    with pytest.raises(ValueError,
                       match="dma_max_retries must be at least 0"):
        HwParams(dma_max_retries=-1)


def test_negative_msix_wire_time_fails():
    # 340 ns ioctl + 350 ns receive leave no wire time in 600 ns.
    with pytest.raises(ValueError, match="HwParams.msix_e2e .* negative "
                                         "MSI-X wire time"):
        HwParams(msix_e2e=600.0)
    link = Interconnect(HwParams(msix_e2e=800.0))
    assert link.msix_propagation() == pytest.approx(110.0)


@pytest.mark.parametrize("changes,hop", [
    # A posted write visible at the NIC before it enters the fabric.
    ({"mmio_write_uc": 800.0}, "ic -> nic"),
    # Wire time left, but less than the MSI-X register write.
    ({"msix_e2e": 700.0}, "ic -> host"),
    ({"mmio_write_uc": 0.0}, "host -> ic"),
    ({"msix_send_reg": 0.0}, "nic -> ic"),
])
def test_hop_without_lookahead_fails(changes, hop):
    with pytest.raises(ValueError, match=f"lookahead {hop} .* must take "
                                         f"time"):
        HwParams(**changes)


def test_replace_revalidates():
    import dataclasses
    with pytest.raises(ValueError, match="nic_cores"):
        dataclasses.replace(HwParams.pcie(), nic_cores=0)
