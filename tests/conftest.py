"""Shared fixtures: the three reference growth families, meshes, and the
smooth profile corpus used by the refinement tests."""

import tracemalloc

import numpy as np
import pytest

from fglap.orlicz import Discretization, GridFunction, Mesh, OperatorConfig
from fglap.young import DoublePowerYoung, LogTypeYoung, PowerYoung


@pytest.fixture(scope="session")
def power4():
    return PowerYoung(4.0)


@pytest.fixture(scope="session")
def power3():
    return PowerYoung(3.0)


@pytest.fixture(scope="session")
def dp34():
    return DoublePowerYoung(3.0, 4.0)


@pytest.fixture(scope="session")
def log221():
    return LogTypeYoung(2.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def families(power4, dp34, log221):
    return [power4, dp34, log221]


@pytest.fixture(scope="session")
def mesh33():
    return Mesh(33)


@pytest.fixture(scope="session")
def mesh65():
    return Mesh(65)


def profile_values(tag: str, nodes: np.ndarray) -> np.ndarray:
    inner = 1.0 - nodes * nodes
    if tag == "bump":
        return inner
    if tag == "tilt":
        return inner * (1.0 + 0.5 * nodes)
    if tag == "sine":
        return np.sin(np.pi * nodes) ** 2 * np.sqrt(inner)
    raise ValueError(tag)


PROFILE_TAGS = ("bump", "tilt", "sine")


@pytest.fixture(scope="session")
def smoke_corpus(mesh65):
    """Three smooth boundary-vanishing profiles on the reference mesh."""
    return {tag: GridFunction(mesh65, profile_values(tag, mesh65.nodes))
            for tag in PROFILE_TAGS}


@pytest.fixture
def quotient_passes(monkeypatch):
    """The far-pair quotient passes (`Discretization.quotients` from row 0
    on, which a pass over several row blocks starts with) made so far, in
    a one-element list: an assembly that makes none reuses the residual's
    quotients."""
    calls, quotients = [0], Discretization.quotients

    def counted(disc, uv, out, lo=0):
        calls[0] += lo == 0
        return quotients(disc, uv, out, lo)

    monkeypatch.setattr(Discretization, "quotients", counted)
    return calls


def stalled_matrix(cfg, u, *, even=False):
    """Stand-in Newton matrix far too stiff to converge: every step is
    tiny, so a solve runs out of iterations with finite iterates. With
    ``even`` it has the rows up to the centre, as `assemble_matrix` does."""
    n = u.mesh.m - 2
    return 1e6 * np.eye((n + 1) // 2 if even else n, n)


def cfg_for(yf, s: float, **kw) -> OperatorConfig:
    return OperatorConfig(young=yf, s=s, **kw)


def dense_far_kernels(mesh: Mesh, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The far-pair kernels as full m x m arrays from the node coordinates:
    ds = |x_i - x_j|^s and kr = w_i w_j / |x_i - x_j|^(1+s), with ds = 1
    and kr = 0 on near pairs, |i - j| <= 1."""
    idx = np.arange(mesh.m)
    near = np.abs(np.subtract.outer(idx, idx)) <= 1
    dist = np.abs(np.subtract.outer(mesh.nodes, mesh.nodes))
    dist[near] = 1.0
    kr = np.outer(mesh.weights, mesh.weights) / dist ** (1.0 + s)
    kr[near] = 0.0
    return dist ** s, kr


def traced_peak(fn) -> int:
    """Bytes that one call of fn allocates at its peak, after a warm-up
    call has filled every cache and reused buffer."""
    fn()
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not running:
            tracemalloc.stop()
