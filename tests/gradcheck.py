"""Central-difference gradient checks shared by the autodiff and model tests."""

import numpy as np

from bddseq import autodiff as ad
from bddseq import model as M


def central_difference_errors(params, value, eps, probes, rng) -> list[float]:
    """Per parameter, the vector-norm relative error between its `.grad` and
    central differences of `value()` (a float) at up to `probes` random entries."""
    errors = []
    for p in params:
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        idxs = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        fd = np.zeros(len(idxs))
        an = np.zeros(len(idxs))
        for k, i in enumerate(idxs):
            old = flat[i]
            flat[i] = old + eps
            up = value()
            flat[i] = old - eps
            down = value()
            flat[i] = old
            fd[k] = (up - down) / (2.0 * eps)
            an[k] = grad[i]
        denom = max(np.linalg.norm(fd), np.linalg.norm(an), 1e-12)
        errors.append(float(np.linalg.norm(fd - an) / denom))
    return errors


def perturb_params(params: M.ModelParams, scale: float, seed: int) -> None:
    """Jitter all parameters to a generic point (kinks off exact zeros)."""
    rng = np.random.default_rng(seed)
    for p in params.tensors.values():
        p.data += scale * rng.standard_normal(p.data.shape)


def gradient_check(
    batch,
    params: M.ModelParams,
    eps: float = 1e-5,
    probes_per_group: int = 8,
    seed: int = 0,
) -> dict[str, float]:
    """Central finite differences vs backward() on the teacher-forced loss of
    a minibatch of (CircuitGraph, VarOrder) pairs.

    Returns the vector-norm relative error per parameter group over the
    probed entries.
    """

    graphs, labels = zip(*batch)

    def batch_loss():
        return M.loss(*M.sample_loss_terms(M.batch_layout(graphs, params), labels, params))

    def value() -> float:
        with ad.no_grad():
            return batch_loss().item()

    for p in params.tensors.values():
        p.grad = None
    batch_loss().backward()
    rng = np.random.default_rng(seed)
    errors = central_difference_errors(
        params.tensors.values(), value, eps, probes_per_group, rng
    )
    return dict(zip(params.tensors, errors))
