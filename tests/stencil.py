"""Fourth-order difference stencils: the test oracle for closed-form derivatives.

Wirtinger derivatives in the real coordinates psi = x + i y are
``d/dpsibar = (d/dx + i d/dy)/2`` and ``d/dpsi = (d/dx - i d/dy)/2``.  One
fourth-order central stencil serves both: it sends its ``8d`` probes
``psi + s h e_n``, s in (+-1, +-2, +-i, +-2i), to the function in one call.
The gradient is the stencil of the values at ``h = 1e-5 (1 + |psi|)``, the
operator that of a gradient at the same step; differences of a differenced
gradient take ``h = 1e-4 (1 + |psi|)``, where their roundoff stays under the
1e-8 hermiticity gate.
"""

import numpy as np

from nlqm import HomogeneousObservable

GRADIENT_STEP = 1e-5
HESSIAN_STEP = 1e-4


def _central_differences(f, z, h):
    """Derivatives of ``f`` at ``z`` along ``x_n`` and along ``y_n``, stacked
    on the first axis, n on the second, from one call on the ``(8d, d)`` probes."""
    d = z.size
    s = h * np.array([[1, -1, 2, -2], [1j, -1j, 2j, -2j]])
    v = np.asarray(f((z + s[:, None, :, None] * np.eye(d)[:, None, :]).reshape(8 * d, d)))
    v = v.reshape((2, d, 4) + v.shape[1:])
    return (8.0 * (v[:, :, 0] - v[:, :, 1]) - (v[:, :, 2] - v[:, :, 3])) / (12.0 * h)


def _rows(one, z):
    """``one`` of a state, or of each row of a ``(B, d)`` stack."""
    z = np.asarray(z, dtype=complex)
    return one(z) if z.ndim == 1 else np.array([one(row) for row in z])


def stencil_gradient(value, z, step=GRADIENT_STEP):
    """``dA/dpsibar`` of the real map ``value`` (states to values) at a state
    or at each row of a stack."""
    def one(zv):
        dx, dy = _central_differences(value, zv, step * (1.0 + np.linalg.norm(zv)))
        return 0.5 * (dx + 1j * dy)
    return _rows(one, z)


def stencil_operator(gradient, z, step=GRADIENT_STEP):
    """``A_hat[m, n] = d g_m / dpsi_n`` of the map ``gradient`` (states to
    ``dA/dpsibar``) at a state or at each row of a stack."""
    def one(zv):
        dx, dy = _central_differences(gradient, zv, step * (1.0 + np.linalg.norm(zv)))
        return 0.5 * (dx - 1j * dy).T
    return _rows(one, z)


def differenced(evaluator, label):
    """A ``HomogeneousObservable`` of the value-only ``evaluator`` ``(z, zc) ->
    value``: its gradient differenced from the values, its operator from that
    gradient at the larger step, both row by row on a stack."""
    value = lambda zs: np.real(evaluator(zs, zs.conj()))
    coarse = lambda zs: stencil_gradient(value, zs, HESSIAN_STEP)
    return HomogeneousObservable(evaluator=evaluator, label=label,
                                 analytic_gradient=lambda z: stencil_gradient(value, z),
                                 analytic_operator=lambda z: stencil_operator(coarse, z,
                                                                              HESSIAN_STEP))
