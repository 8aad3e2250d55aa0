"""The O(M^2) reference of kernels.convolve_cumulative: the same trapezoid
rule summed directly at every node, from kernel_values alone."""

import numpy as np

from singular_forge import kernel_values


def convolve_cumulative_direct(cls, rho, g):
    """(int K g, int dK g) of the kernel of the classification cls at every
    node of the uniform grid rho, each a direct trapezoid sum over the
    nodes up to it."""
    rho = np.asarray(rho, dtype=float)
    g = np.asarray(g, dtype=float)
    h = rho[1] - rho[0]
    n = len(rho)
    ik = np.zeros(n)
    idk = np.zeros(n)
    for i in range(1, n):
        kv, dkv = kernel_values(cls, rho[i], rho[: i + 1])
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        ik[i] = h * np.sum(w * kv * g[: i + 1])
        idk[i] = h * np.sum(w * dkv * g[: i + 1])
    return ik, idk
