"""Exact information quantities for the two binary-input channels.

Channels
--------
NOISY_ADDITIVE : Y = X1 + X2 + N with N uniform on {0, 1}; output {0, 1, 2, 3}.
ERASURE        : Y = X1 + X2; output {0, 1, 2}.

Inputs are described either by a :class:`JointInputDistribution` (conditionally
independent given an auxiliary T, the only form the dependence-balance bounds
admit) or, for the cut-set bound, by a raw 4-atom joint over (X1, X2).

Everything is computed by exact enumeration of the finite joint law; conditional
entropies are differences of joint entropies of materialized marginals, which
avoids 0/0 in conditional probabilities.  One input at a time, this is the
scalar reference the tests check ``macfb._kernels`` against; the ``verify``
suites and the oracle call only ``_kernels``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .infofn import CLAMP_TOL, InvalidDistributionError, as_probability_vector, plogp

__all__ = [
    "Channel",
    "JointInputDistribution",
    "InfoQuantities",
    "transition_tensor",
    "joint_law",
    "output_distribution",
    "info_quantities",
    "verify_half_entropy_identity",
    "cutset_quantities",
]


class Channel(enum.Enum):
    """Channel kind; the transition law is deterministic from the kind."""

    NOISY_ADDITIVE = "noisy-additive"
    ERASURE = "erasure"

    @property
    def output_alphabet_size(self) -> int:
        return 4 if self is Channel.NOISY_ADDITIVE else 3


def transition_tensor(channel: Channel) -> np.ndarray:
    """P(y | x1, x2) as an array of shape (2, 2, |Y|)."""
    ny = channel.output_alphabet_size
    t = np.zeros((2, 2, ny))
    for x1 in range(2):
        for x2 in range(2):
            if channel is Channel.NOISY_ADDITIVE:
                t[x1, x2, x1 + x2] = 0.5
                t[x1, x2, x1 + x2 + 1] = 0.5
            else:
                t[x1, x2, x1 + x2] = 1.0
    return t


@dataclass(frozen=True)
class JointInputDistribution:
    """p(t) p(x1|t) p(x2|t) over binary inputs and finite T.

    ``q1[t]`` and ``q2[t]`` are Pr(X1 = 0 | T = t) and Pr(X2 = 0 | T = t).
    """

    p_t: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        p = as_probability_vector(self.p_t)
        q1 = np.asarray(self.q1, dtype=float)
        q2 = np.asarray(self.q2, dtype=float)
        if q1.shape != p.shape or q2.shape != p.shape:
            raise InvalidDistributionError("q1/q2 must have one entry per value of T")
        for name, q in (("q1", q1), ("q2", q2)):
            if not (np.all(q >= -CLAMP_TOL) and np.all(q <= 1 + CLAMP_TOL)):
                raise InvalidDistributionError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "p_t", p)
        object.__setattr__(self, "q1", np.clip(q1, 0.0, 1.0))
        object.__setattr__(self, "q2", np.clip(q2, 0.0, 1.0))

    @property
    def t_card(self) -> int:
        return self.p_t.size

    def to_dict(self) -> dict:
        """The JSON form of the input: ``p_t``, ``q1`` and ``q2`` as lists of floats."""
        return {"p_t": self.p_t.tolist(), "q1": self.q1.tolist(), "q2": self.q2.tolist()}


@dataclass(frozen=True)
class InfoQuantities:
    """Exact values (bits) of the information terms the bounds are built from."""

    h_x1_given_t: float
    h_x2_given_t: float
    i_x1_y_given_x2: float
    i_x2_y_given_x1: float
    i_x1x2_y: float
    h_y: float
    h_x1_given_y_x2_t: float
    h_x2_given_y_x1_t: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < -1e-9:
                raise ValueError(f"{name} should be nonnegative, got {value}")
            if value < 0.0:
                object.__setattr__(self, name, 0.0)
        if self.i_x1x2_y > self.h_y + 1e-9:
            raise ValueError("I(X1,X2;Y) cannot exceed H(Y)")


def _entropy(table: np.ndarray) -> float:
    """Entropy in bits of an unnormalized-looking (but valid) joint table."""
    flat = table.reshape(-1)
    return float(-plogp(flat[flat > 0.0]).sum())


def joint_law(channel: Channel, d: JointInputDistribution) -> np.ndarray:
    """Full joint P(t, x1, x2, y), shape (|T|, 2, 2, |Y|)."""
    q1 = np.stack([d.q1, 1.0 - d.q1], axis=1)  # (K, 2)
    q2 = np.stack([d.q2, 1.0 - d.q2], axis=1)
    w = d.p_t[:, None, None] * q1[:, :, None] * q2[:, None, :]  # (K, 2, 2)
    return w[..., None] * transition_tensor(channel)[None, ...]


def output_distribution(channel: Channel, d: JointInputDistribution) -> np.ndarray:
    """Marginal P(Y) by enumeration over (t, x1, x2, n)."""
    return joint_law(channel, d).sum(axis=(0, 1, 2))


def info_quantities(channel: Channel, d: JointInputDistribution) -> InfoQuantities:
    """All information terms of ``d`` on ``channel``, by exact enumeration."""
    law = joint_law(channel, d)  # (K, 2, 2, Y)
    s_t = _entropy(law.sum(axis=(1, 2, 3)))
    s_tx1 = _entropy(law.sum(axis=(2, 3)))
    s_tx2 = _entropy(law.sum(axis=(1, 3)))
    s_full = _entropy(law)
    s_tx1y = _entropy(law.sum(axis=2))
    s_tx2y = _entropy(law.sum(axis=1))
    m_x1x2y = law.sum(axis=0)
    s_x1x2y = _entropy(m_x1x2y)
    s_x1x2 = _entropy(m_x1x2y.sum(axis=2))
    s_x1y = _entropy(m_x1x2y.sum(axis=1))
    s_x2y = _entropy(m_x1x2y.sum(axis=0))
    s_x1 = _entropy(m_x1x2y.sum(axis=(1, 2)))
    s_x2 = _entropy(m_x1x2y.sum(axis=(0, 2)))
    s_y = _entropy(m_x1x2y.sum(axis=(0, 1)))
    return InfoQuantities(
        h_x1_given_t=s_tx1 - s_t,
        h_x2_given_t=s_tx2 - s_t,
        i_x1_y_given_x2=(s_x1x2 - s_x2) - (s_x1x2y - s_x2y),
        i_x2_y_given_x1=(s_x1x2 - s_x1) - (s_x1x2y - s_x1y),
        i_x1x2_y=s_y - (s_x1x2y - s_x1x2),
        h_y=s_y,
        h_x1_given_y_x2_t=s_full - s_tx2y,
        h_x2_given_y_x1_t=s_full - s_tx1y,
    )


def verify_half_entropy_identity(d: JointInputDistribution) -> tuple[float, float]:
    """Return (H(X1|Y,X2,T), H(X1|T)/2) for the noisy additive channel.

    The two agree exactly for every conditionally independent input: given
    X2 and T, the output either reveals X1 or (with probability 1/2) nothing.
    """
    q = info_quantities(Channel.NOISY_ADDITIVE, d)
    return q.h_x1_given_y_x2_t, 0.5 * q.h_x1_given_t


#: T = (X1, X2): P(X1 = 0 | T) and P(X2 = 0 | T) for T = 00, 01, 10, 11
_PAIR_Q1 = np.array([1.0, 1.0, 0.0, 0.0])
_PAIR_Q2 = np.array([1.0, 0.0, 1.0, 0.0])


def cutset_quantities(channel: Channel, joint: np.ndarray) -> tuple[float, float, float]:
    """(I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) for a 4-atom input joint.

    ``joint`` is (P(00), P(01), P(10), P(11)).  With T = (X1, X2) the inputs
    are deterministic given T, so any joint is conditionally independent
    given T and :func:`info_quantities` applies; this is the one place
    arbitrary input correlation is allowed (the cut-set bound).
    """
    q = info_quantities(channel, JointInputDistribution(p_t=joint, q1=_PAIR_Q1, q2=_PAIR_Q2))
    return q.i_x1_y_given_x2, q.i_x2_y_given_x1, q.i_x1x2_y
