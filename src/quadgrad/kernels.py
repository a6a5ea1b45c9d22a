"""The divergence-form stencil and its sine basis, for every grid dimension.

The operator application is the innermost loop of every conjugate-gradient
iteration, which in turn sits inside semismooth Newton inside the fixed-point
outer loop.  Its index tuples are therefore built once per grid shape
(``stencil_plan``) and each application is one zero-padded copy plus slice
differences per axis.

The orthonormal sine matrices (``sine_basis``, cached per axis length)
diagonalize the stencil, whose coefficient is one constant per axis;
``sine_transform`` applies one per axis as dense matrix products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# There is a single numpy stencil; the flag stays because the benchmark
# harness (perfbench/worker.py) records it with every run.
USING_NUMBA = False


class StencilPlan(NamedTuple):
    """Index tuples for nodal arrays of one shape, zero-padded by one node.

    ``edges[a]`` holds the (upper, lower) nodes of each axis-a edge in the
    padded array, ``nodes[a]`` the (upper, lower) edges of each node in an
    axis-a edge array.
    """

    padded: tuple
    interior: tuple
    edges: tuple
    nodes: tuple


@lru_cache(maxsize=32)
def stencil_plan(shape):
    dim = len(shape)

    def along(axis, at_axis, elsewhere):
        return tuple(at_axis if b == axis else elsewhere for b in range(dim))

    upper, lower, inner, whole = (slice(1, None), slice(None, -1),
                                  slice(1, -1), slice(None))
    return StencilPlan(
        padded=tuple(n + 2 for n in shape),
        interior=(inner,) * dim,
        edges=tuple((along(a, upper, inner), along(a, lower, inner))
                    for a in range(dim)),
        nodes=tuple((along(a, upper, whole), along(a, lower, whole))
                    for a in range(dim)),
    )


def zero_padded(v, plan):
    """Copy of v with one layer of homogeneous Dirichlet nodes around it."""
    ext = np.zeros(plan.padded)
    ext[plan.interior] = v
    return ext


def apply_diffusion(v, axes, plan):
    """(2d+1)-point divergence-form stencil.

    ``axes`` holds one (axis coefficient over h^2, edge index, node index)
    tuple per axis; the axis terms are summed in axis order from the first.
    """
    ext = zero_padded(v, plan)
    out = None
    for coef, (hi, lo), (nhi, nlo) in axes:
        flux = ext[hi] - ext[lo]
        flux *= coef
        term = flux[nlo] - flux[nhi]
        if out is None:
            out = term
        else:
            out += term
    return out


@lru_cache(maxsize=32)
def sine_basis(n):
    """Orthonormal DST-I matrix of order n: symmetric and its own inverse.

    Column k (1-based) is the Dirichlet eigenvector sin(pi j k / (n+1)) of the
    3-point stencil on n interior nodes, with eigenvalue
    (2 sin(pi k / (2(n+1))) / h)^2 for spacing h.
    """
    k = np.arange(1, n + 1)
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.outer(k, k))
    basis.setflags(write=False)
    return basis


def sine_transform(v, bases):
    """Multiplies v by ``bases[a]`` along every axis a.

    Each product contracts the leading axis and appends the transformed one,
    so after one product per axis the axes are back in their order.
    """
    for basis in bases:
        n = basis.shape[0]
        v = (v.reshape(n, -1).T @ basis).reshape(v.shape[1:] + (n,))
    return v
