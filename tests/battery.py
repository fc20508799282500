"""Deterministic battery of subspace sequences with known behavior.

Every member is built in a fixed orthonormal frame drawn from a seeded
generator: the candidate limit V is spanned by the first k frame rows and
basis vector i of U_n is

    cos(theta_i(n)) v_i + sin(theta_i(n)) w_i

where w_i is the i-th companion frame row. Such bases are exactly
orthonormal and the gap from U_n to V is exactly max_i |sin theta_i(n)|,
so each member's exceptional sets are known in closed form and the
expected verdicts below are derivable by hand. When d < 2k only the
first d - k directions tilt; the rest stay glued to V.

Ten members converge (sine profiles decaying fast enough that every
exceptional set is a short prefix), ten do not. Among the divergent ones,
the ``parity`` members diverge only on odd indices and therefore still
converge under the block ideal; all others diverge under all three
ideals. Decay scales are chosen so that, at horizon 1000 with the
default epsilon grid and tau = 0.01, every verdict is decisive: prefixes
stay at most 9 long at eps = 0.01, plateaus stay at least 0.52, and no
profile value sits on a grid threshold. Half of the convergent members
and one parity member carry exceptional-set certificates, so both the
exact and the empirical decision paths are exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from subspace_limits import (
    EmptyTail,
    Ideal,
    Subspace,
    SubspaceSequence,
    SubsetOfBlocks,
    SubsetOfUnion,
    Verdict,
)

BATTERY_HORIZON = 1000

BATTERY_IDEALS = {
    "finite": Ideal.finite(),
    "density": Ideal.density(),
    "blocks": Ideal.blocks(),
}

CONVERGES = Verdict.CONVERGES
DNC = Verdict.DOES_NOT_CONVERGE


@dataclass(frozen=True)
class BatteryMember:
    name: str
    seq: SubspaceSequence
    limit: Subspace
    expected: dict  # ideal name -> Verdict


def rotating_frame(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((d, d)))[0].T


def make_member(name, d, k, seed, sines, certificate=None, expected=None) -> BatteryMember:
    """Member whose i-th active direction tilts with sine sines(n)[i]."""
    frame = rotating_frame(d, seed)
    V = Subspace(frame[:k])
    t = min(k, d - k)
    companions = frame[k : k + t]

    def rule(n: int) -> Subspace:
        s = np.zeros(k)
        s[:t] = sines(n)
        c = np.sqrt(1.0 - s * s)
        basis = c[:, None] * V.basis
        basis[:t] = basis[:t] + s[:t, None] * companions
        return Subspace(basis)

    seq = SubspaceSequence(rule=rule, exceptional_certificate=certificate, description=name)
    return BatteryMember(name, seq, V, dict(expected))


def power_profile(scales, exponent):
    """sin theta_i(n) = scales[i] / n^exponent, with its exceptional bound."""
    a = np.asarray(scales, dtype=float)

    def sines(n: int) -> np.ndarray:
        return a / float(n) ** exponent

    def bound(eps: float) -> int:
        return max(1, math.ceil((float(a.max()) / eps) ** (1.0 / exponent)))

    return sines, bound


def geometric_profile(scales, ratio):
    """sin theta_i(n) = scales[i] * ratio^n, with its exceptional bound."""
    a = np.asarray(scales, dtype=float)

    def sines(n: int) -> np.ndarray:
        return a * ratio**n

    def bound(eps: float) -> int:
        top = float(a.max())
        if top < eps:
            return 1
        return max(1, math.ceil(math.log(top / eps) / math.log(1.0 / ratio)))

    return sines, bound


def constant_profile(values):
    v = np.asarray(values, dtype=float)
    return lambda n: v


def parity_profile(odd_values, even_scales, even_exponent):
    """Plateau on odd n, power decay on even n."""
    odd = np.asarray(odd_values, dtype=float)
    decay, decay_bound = power_profile(even_scales, even_exponent)

    def sines(n: int) -> np.ndarray:
        return odd if n % 2 == 1 else decay(n)

    return sines, decay_bound


def prefix_certificate(bound):
    """EmptyTail certificate from an analytic exceptional bound."""
    return lambda eps: EmptyTail(bound(eps))


def parity_certificate(bound):
    """Odd block plus a finite even prefix."""
    return lambda eps: SubsetOfUnion((SubsetOfBlocks((1,)), EmptyTail(bound(eps))))


def _all(verdict) -> dict:
    return {"finite": verdict, "density": verdict, "blocks": verdict}


def build_battery() -> list[BatteryMember]:
    members: list[BatteryMember] = []

    # convergent members: exceptional sets are prefixes of length <= 9
    for name, d, k, seed, (sines, bound), certified in (
        ("conv-power-2d", 2, 1, 101, power_profile([0.45], 2.0), True),
        ("conv-power-3d", 3, 1, 102, power_profile([0.8], 2.0), False),
        ("conv-geom-3d", 3, 1, 103, geometric_profile([0.9], 0.5), True),
        ("conv-power-4d-k2", 4, 2, 104, power_profile([0.45, 0.3], 2.0), False),
        ("conv-cubic-4d-k2", 4, 2, 105, power_profile([0.7, 0.55], 3.0), True),
        ("conv-geom-5d-k2", 5, 2, 106, geometric_profile([0.8, 0.6], 0.4), False),
        ("conv-power-5d-k3", 5, 3, 107, power_profile([0.45, 0.3], 2.0), True),
        ("conv-geom-5d-k3", 5, 3, 108, geometric_profile([0.9, 0.7], 0.5), False),
        ("conv-power-small", 3, 1, 109, power_profile([0.3], 2.0), True),
        ("conv-power-5d-k2", 5, 2, 110, power_profile([0.6, 0.2], 2.0), False),
    ):
        cert = prefix_certificate(bound) if certified else None
        members.append(make_member(name, d, k, seed, sines, cert, _all(CONVERGES)))

    # divergent everywhere: plateaus clear of every grid threshold
    members.append(
        make_member("div-orthogonal", 2, 1, 201, constant_profile([1.0]), None, _all(DNC))
    )
    members.append(
        make_member("div-plateau", 3, 1, 202, constant_profile([0.8]), None, _all(DNC))
    )
    members.append(
        make_member(
            "div-one-direction", 4, 2, 203, constant_profile([0.6, 0.0]), None, _all(DNC)
        )
    )
    osc = lambda n: np.array([0.72 + 0.2 * math.sin(n)])
    members.append(make_member("div-oscillating", 2, 1, 207, osc, None, _all(DNC)))
    drift = lambda n: np.array([1.0 - 0.4 / n])
    members.append(make_member("div-drift-up", 3, 1, 208, drift, None, _all(DNC)))

    def mixed(n: int) -> np.ndarray:
        return np.array([0.75, min(1.0, 0.5 / n**2)])

    members.append(make_member("div-mixed-5d-k3", 5, 3, 209, mixed, None, _all(DNC)))
    members.append(
        make_member("div-mixed-4d-k2", 4, 2, 211, lambda n: np.array([0.65, 0.3 / n]), None, _all(DNC))
    )

    # divergent on odd indices only: these converge under the block ideal
    parity_expected = {"finite": DNC, "density": DNC, "blocks": CONVERGES}
    sines, bound = parity_profile([0.9], [0.45], 2.0)
    members.append(
        make_member(
            "parity-certified", 3, 1, 204, sines, parity_certificate(bound), parity_expected
        )
    )
    sines, bound = parity_profile([0.7], [0.6], 2.0)
    members.append(make_member("parity-bare", 4, 1, 205, sines, None, parity_expected))
    sines, bound = parity_profile([0.85, 0.65], [0.7, 0.4], 3.0)
    members.append(
        make_member("parity-k2", 4, 2, 206, sines, None, parity_expected)
    )

    assert len(members) == 20
    return members


def convergent_members(battery):
    return [m for m in battery if all(v is CONVERGES for v in m.expected.values())]
