"""Shared fixtures: parsed gate sets and the nets the slow tests reuse."""

from pathlib import Path

import pytest

from irrepsk import base_params, build_gateset_net, load_gateset

GATESETS = Path(__file__).resolve().parent.parent / "gatesets"


@pytest.fixture(scope="session")
def ht_gateset():
    return load_gateset(GATESETS / "pauli_ht.json")


@pytest.fixture(scope="session")
def ht_params(ht_gateset):
    # inverse-extended base net; length 14 keeps sk_depths at eps = 1e-4 fast
    return base_params(ht_gateset, 14)


@pytest.fixture(scope="session")
def ht_refine_net(ht_gateset):
    return build_gateset_net(ht_gateset, 8)


@pytest.fixture(scope="session")
def skew_gateset():
    return load_gateset(GATESETS / "pauli_skew.json")


@pytest.fixture(scope="session")
def skew_net(skew_gateset):
    return build_gateset_net(skew_gateset, 4)


@pytest.fixture(scope="session")
def rz_gateset():
    return load_gateset(GATESETS / "pauli_rz.json")


@pytest.fixture(scope="session")
def rz_net(rz_gateset):
    return build_gateset_net(rz_gateset, 4)


@pytest.fixture(scope="session")
def sl_gateset():
    return load_gateset(GATESETS / "sl_pauli_scale.json")


@pytest.fixture(scope="session")
def sl_net(sl_gateset):
    return build_gateset_net(sl_gateset, 3)


@pytest.fixture(scope="session")
def slp_gateset():
    return load_gateset(GATESETS / "sl_perturbed.json")


@pytest.fixture(scope="session")
def slp_net(slp_gateset):
    return build_gateset_net(slp_gateset, 3)
