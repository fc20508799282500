"""Sequences n -> U_n of k-dimensional subspaces, and the built-in ones.

A :class:`SubspaceSequence` is given by a per-index rule or a batch rule,
and evaluates a chunk of indices itself into the cross-Gram and residual
factor the trace pass reads (:meth:`SubspaceSequence.frames`): from its
checked bases, or from a batch rule's closed form. The built-ins live
beside it: parity-split, orthogonal-constant and the rotating family with
its profile compiler and closed-form frames, each a batch rule, and the
``BUILTIN_SEQUENCES`` table the CLI reads. A new built-in is one builder
plus one table row. The config value readers the profile compiler uses
live here too, so the CLI imports them and this module imports neither
the judging engine nor the CLI.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import linalg
from .ideals import EmptyTail, Ideal, SubsetOfBlocks, SubsetOfUnion, TailCertificate
from .linalg import Subspace, orthonormalize


class ConfigError(ValueError):
    """A config document failed validation; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _object(value, field: str, known, required=()) -> None:
    """Check a config object: a dict with only ``known`` keys and every ``required`` one."""
    if not isinstance(value, dict):
        raise ConfigError(field, "must be an object")
    prefix = f"{field}." if field else ""
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(prefix + unknown[0], "is not a recognized key")
    for key in required:
        if key not in value:
            raise ConfigError(prefix + key, "is required")


def _kind(value, field: str, kinds: dict):
    """The ``kinds`` entry a config object's "kind" names, checked before its other keys."""
    if not isinstance(value, dict):
        raise ConfigError(field, "must be an object")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        got = f", got {kind!r}" if "kind" in value else ""
        raise ConfigError(f"{field}.kind", f"must be one of {list(kinds)}{got}")
    return kinds[kind]


def _number(value, field: str, integer: bool = False):
    """A config value as a float, or as an int if ``integer``; a bool is neither."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(field, f"expected {what}, got {value!r}")
    return int(value) if integer else float(value)


# --------------------------------------------------------------------------
# The sequence type


class RuleEvaluationError(RuntimeError):
    """A sequence rule failed or returned a malformed subspace."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"sequence rule failed at index {index}: {message}")


@dataclass(frozen=True)
class SubspaceSequence:
    """A deterministic rule n -> Subspace with fixed per-n bases.

    Give ``rule`` or ``batch_rule``, not both. ``batch_rule`` maps ns (m,) to bases
    (m, k, d), checked per trace chunk as ``Subspace`` checks one; ``rule`` derives from it.
    ``k`` and ``ambient_dim`` are read off ``rule(1)``; every index must match them.
    A batch rule may carry ``closed_frames = (B, frames)``: ``frames`` maps ns to [C | T]
    (m, k, 2k) against the limit basis B in closed form, and replacing the rule drops it.
    ``exceptional_certificate`` optionally maps eps to a tail certificate
    for the set {n : gap(U_n, V) >= eps} against the sequence's intended
    limit, or to None where it has none; it is what makes exact
    convergence verdicts possible. It is read once per eps of a grid.
    """

    rule: Optional[Callable[[int], Subspace]] = None
    exceptional_certificate: Optional[Callable[[float], TailCertificate]] = None
    description: str = ""
    batch_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None
    k: int = field(init=False)
    ambient_dim: int = field(init=False)

    def __post_init__(self):
        derived = isinstance(self.rule, partial) and self.rule.func is _batch_rule_at
        if (self.rule is not None and not derived) == (self.batch_rule is not None):
            raise ValueError("a sequence takes exactly one of rule and batch_rule")
        if self.batch_rule is not None:  # derived anew: replace() copies the old derived rule
            object.__setattr__(self, "rule", partial(_batch_rule_at, self.batch_rule))
        probe = _call_rule(self.rule, 1)
        if not isinstance(probe, Subspace):
            raise ValueError(f"rule(1) returned {probe!r}, expected a Subspace")
        object.__setattr__(self, "k", probe.k)
        object.__setattr__(self, "ambient_dim", probe.ambient_dim)

    def bases(self, ns: np.ndarray) -> np.ndarray:
        """The bases of the indices ns (m,) as checked floats (m, k, d): one trace chunk."""
        # a sequence given per index is stacked through self.rule, then checked like any other
        rule = self.batch_rule or (lambda ns: [_checked_basis(self, n) for n in ns.tolist()])
        return self._checked(rule, ns, self.ambient_dim)

    def frames(self, ns: np.ndarray, V: Subspace) -> tuple[np.ndarray, np.ndarray]:
        """(C, T) of ns (m,) against V's basis B: cross-Gram C = A B^T, T T^T = R R^T for the
        residual R = A - C B. A closed form against B itself is (m, k, k); else T = R (m, k, d)."""
        limit, closed = getattr(self.batch_rule, "closed_frames", (None, None))
        if limit is None or limit.shape != V.basis.shape or limit.tobytes() != V.basis.tobytes():
            return linalg.cross_residual(self.bases(ns), V.basis)[::2]  # (C, R)
        CT = self._checked(closed, ns, 2 * self.k)  # [C | T] has orthonormal rows
        return CT[..., : self.k], CT[..., self.k :]

    def _checked(self, rule, ns: np.ndarray, width: int) -> np.ndarray:
        """rule(ns) as floats (m, k, width) with orthonormal rows. A rule that raises is asked
        again index by index: the RuleEvaluationError names the first index that fails alone,
        or the chunk's first if none does; any other failure names the index it concerns."""

        def stack(ns):
            return np.ascontiguousarray(rule(ns), dtype=float)

        try:
            A = stack(ns)
        except RuleEvaluationError:
            raise
        except Exception as exc:
            for i in range(len(ns)):  # on failure only: a passing chunk asks each index once
                _call_rule(stack, ns[i : i + 1], int(ns[i]))
            raise RuleEvaluationError(int(ns[0]), str(exc)) from exc
        expected = (len(ns), self.k, width)
        if A.shape != expected:
            raise RuleEvaluationError(
                int(ns[0]), f"batch rule returned shape {A.shape}, expected {expected}"
            )
        bad = linalg.first_non_orthonormal(A)
        if bad is not None:
            raise RuleEvaluationError(int(ns[bad[0]]), bad[1])
        return A


def _batch_rule_at(batch_rule, n: int) -> Subspace:
    return Subspace(batch_rule(np.array([n]))[0])


def _call_rule(rule, arg, index=None):
    try:
        return rule(arg)
    except RuleEvaluationError:
        raise
    except Exception as exc:
        raise RuleEvaluationError(arg if index is None else index, str(exc)) from exc


def _checked_basis(seq: SubspaceSequence, n: int) -> np.ndarray:
    U = _call_rule(seq.rule, n)
    if isinstance(U, Subspace) and U.basis.shape == (seq.k, seq.ambient_dim):
        return U.basis
    raise RuleEvaluationError(n, f"rule returned {U!r}, expected k={seq.k}, d={seq.ambient_dim}")


# --------------------------------------------------------------------------
# Built-in sequences

# parity_split_example's variants; the first is its default
PARITY_VARIANTS = ("amended", "printed")


def parity_split_example(variant: str = "amended"):
    """Line sequence in R^3 whose behavior depends on the parity of n.

    On odd n the line is span{e3}, orthogonal to the candidate limit
    V = span{e2}, so the gap is 1 there. On even n the line is the
    normalization of a tilt away from e2:

    * ``amended``: raw coefficients (sin(n)/n, 1, 0); after normalizing,
      the gap to V is |sin n| / sqrt(n^2 + sin^2 n) <= 1/n, which decays.
    * ``printed``: raw coefficients (sin(n)/n, 1/n, 0); the common 1/n
      factor cancels under normalization, leaving direction
      (sin n, 1, 0) / sqrt(1 + sin^2 n) whose gap to V oscillates with
      |sin n| and never decays.

    The amended variant carries an exceptional-set certificate: for each
    eps the bad indices lie in the odd block union a finite prefix, which
    puts them inside the block ideal but leaves them of density 1/2. The
    printed variant gets no certificate because its even-index gaps do
    not decay. Returns (sequence, candidate limit, recommended ideal).
    """
    if variant not in PARITY_VARIANTS:
        raise ValueError(f"variant must be one of {PARITY_VARIANTS}, got {variant!r}")
    V = Subspace(np.array([[0.0, 1.0, 0.0]]))

    def batch_rule(ns: np.ndarray) -> np.ndarray:
        raw = np.zeros((len(ns), 1, 3))
        even = ns % 2 == 0  # the odd rows are span{e3}, set below
        raw[even, 0, 0] = [math.sin(n) / n for n in ns[even].tolist()]  # libm's sin, as per index
        raw[:, 0, 1] = 1.0 if variant == "amended" else 1.0 / ns
        # a stacked dot matches the 1-d np.linalg.norm bit for bit; norm(axis=-1) does not
        bases = raw / np.sqrt(raw @ raw.swapaxes(1, 2))
        bases[~even] = [[0.0, 0.0, 1.0]]
        return bases

    certificate = None
    if variant == "amended":

        def certificate(eps: float) -> TailCertificate:
            # even-index gaps are below 1/n, so they clear eps past 1/eps
            return SubsetOfUnion(
                (SubsetOfBlocks((1,)), EmptyTail(max(1, math.ceil(1.0 / eps))))
            )

    seq = SubspaceSequence(
        batch_rule=batch_rule,
        exceptional_certificate=certificate,
        description=f"parity-split line in R^3 ({variant} variant)",
    )
    return seq, V, Ideal.blocks()


def constant_orthogonal_example():
    """The constant line span{e1} in R^2 against the limit V = span{e2}.

    The gap to V is identically 1, so the sequence converges under no
    admissible ideal; yet every self-projection volume ||u, P_V(u)|| is
    identically 0 because the projection itself vanishes. This is the
    standard witness that the volume check is one-directional. Returns
    (sequence, candidate limit).
    """
    V = Subspace(np.array([[0.0, 1.0]]))
    seq = SubspaceSequence(
        batch_rule=lambda ns: np.broadcast_to([[1.0, 0.0]], (len(ns), 1, 2)),
        description="constant line span{e1} in R^2",
    )
    return seq, V


_PROFILE_KEYS = {
    "constant": ("kind", "value"),
    "power_decay": ("kind", "scale", "exponent"),
    "parity": ("kind", "odd_value", "even_scale", "even_exponent"),
}


def _sine_profile(profile: dict, k: int):
    """Compile a profile spec into a function ns (m,) -> per-vector sines (m, k)."""
    field = "sequence.params.profile"
    _object(profile, field, _kind(profile, field, _PROFILE_KEYS))

    def per_vector(value, name) -> np.ndarray:
        values = value if isinstance(value, list) else [value]
        arr = np.array([_number(v, f"{field}.{name}") for v in values])
        arr = np.repeat(arr, k) if arr.size == 1 else arr
        if arr.size != k:
            raise ConfigError(f"{field}.{name}", f"expected a scalar or {k} values")
        if not np.all((arr >= 0) & (arr <= 1)):
            raise ConfigError(f"{field}.{name}", "sine magnitudes must lie in [0, 1]")
        return arr

    def decay(scale, exponent):
        a = per_vector(profile.get(scale, 1.0), scale)
        p = _number(profile.get(exponent, 1.0), f"{field}.{exponent}")
        if not p > 0:
            raise ConfigError(f"{field}.{exponent}", "must be positive")

        def power(n):  # n ** p in Python floats: numpy's array power can differ in the last ulp
            try:
                return n**p
            except OverflowError:  # past the largest double: a / inf is a sine of 0
                return np.inf

        return lambda ns: np.minimum(1.0, a / np.array([power(n) for n in ns.tolist()])[:, None])

    if profile["kind"] == "constant":
        g = per_vector(profile.get("value", 0.0), "value")
        return lambda ns: np.broadcast_to(g, (len(ns), k))
    if profile["kind"] == "power_decay":
        return decay("scale", "exponent")
    g = per_vector(profile.get("odd_value", 1.0), "odd_value")  # parity
    even = decay("even_scale", "even_exponent")
    return lambda ns: np.where((ns % 2 == 1)[:, None], g, even(ns))


def rotating_family(
    ambient_dim: int,
    k: int,
    profile: dict,
    seed: int = 0,
    limit_basis: Optional[np.ndarray] = None,
):
    """Sequences rotating each limit direction toward a fixed companion.

    A deterministic orthonormal frame is drawn from ``seed``: its first k
    rows span the candidate limit unless ``limit_basis`` overrides them, and
    the next k are the companion directions. Only these 2k rows are drawn and
    orthonormalized. Their entries are ``2u - 1``, uniform in [-1, 1), with
    u read row by row from the standard library's ``random.Random(seed)``,
    whose stream Python keeps across versions: a seed names the same frame
    under any NumPy version, though not the one it named when NumPy's normal
    generator drew the frame. The rows equal the first 2k rows of a full
    d-row frame, as Gram-Schmidt row i depends only on the rows before it and
    the stream's prefix does not depend on how many rows are drawn.
    ``ambient_dim``, ``k`` and ``seed`` are integers; a bool or a float is a
    ConfigError.
    Basis vector i of U_n is cos(theta) v_i + sin(theta) w_i where w_i is
    the i-th companion direction and sin(theta) = profile(n)[i]. So against
    its own limit the frames are C = diag(cos theta) and T = diag(sin theta)
    in closed form, and the gap is max_i profile(n)[i] bit for bit. Profiles:

    * ``{"kind": "constant", "value": g}``
    * ``{"kind": "power_decay", "scale": a, "exponent": p}``  (a / n^p)
    * ``{"kind": "parity", "odd_value": g, "even_scale": a,
      "even_exponent": p}``

    Values are real numbers (not bools), or lists of k for ``value``, ``scale``,
    ``odd_value`` and ``even_scale``; anything else is a ConfigError.
    """
    ambient_dim = _number(ambient_dim, "sequence.params.ambient_dim", integer=True)
    k = _number(k, "sequence.params.k", integer=True)
    seed = _number(seed, "sequence.params.seed", integer=True)
    if k < 1:
        raise ConfigError("sequence.params.k", "must be >= 1")
    if ambient_dim < 2 * k:
        raise ConfigError(
            "sequence.params.ambient_dim", f"rotating family needs ambient_dim >= 2k = {2 * k}"
        )
    if seed < 0:
        raise ConfigError("sequence.params.seed", "must be >= 0")
    limit_rows = np.empty((0, ambient_dim)) if limit_basis is None else limit_basis
    if limit_basis is not None and np.shape(limit_rows) != (k, ambient_dim):
        raise ConfigError("limit_basis", f"expected {k} rows of length {ambient_dim}")
    rng = random.Random(seed)
    rows = 2 * k - len(limit_rows)
    uniforms = np.array([rng.random() for _ in range(rows * ambient_dim)])
    randoms = (2.0 * uniforms - 1.0).reshape(rows, ambient_dim)  # exact: [-1, 1) on a 2^-52 grid
    frame = orthonormalize(np.vstack([limit_rows, randoms])).basis
    V = Subspace(frame[:k])
    companions = frame[k:]
    sines = _sine_profile(profile, k)

    def batch_rule(ns: np.ndarray) -> np.ndarray:
        s = sines(ns)[..., None]
        return np.sqrt(1.0 - s * s) * V.basis + s * companions

    def closed_frames(ns: np.ndarray) -> np.ndarray:  # [C | T] = [diag(sqrt(1 - s^2)) | diag(s)]
        s = sines(ns)[..., None]
        return np.concatenate([np.sqrt(1.0 - s * s) * np.eye(k), s * np.eye(k)], axis=-1)
    batch_rule.closed_frames = (V.basis, closed_frames)
    seq = SubspaceSequence(
        batch_rule=batch_rule,
        description=f"rotating family (k={k}, d={ambient_dim}, seed={seed}, "
        f"profile={profile.get('kind')})",
    )
    return seq, V


# One row per built-in: its builder, the variants the builder takes (the first
# is the default), the default ideal kind and horizon, and a summary.
BUILTIN_SEQUENCES = {
    "parity-split": {
        "builder": parity_split_example,
        "variants": PARITY_VARIANTS,
        "ideal": "blocks",
        "horizon": 10000,
        "summary": (
            "line in R^3: orthogonal to the limit on odd n, tilted toward it "
            "on even n; converges under the block ideal (amended variant) but "
            "not statistically and not in the usual sense"
        ),
    },
    "orthogonal-constant": {
        "builder": constant_orthogonal_example,
        "variants": (),
        "ideal": "density",
        "horizon": 1000,
        "summary": (
            "constant line span{e1} in R^2 against V = span{e2}: gap is "
            "identically 1, the self-projection volumes are identically 0; "
            "witnesses the one-way direction of the volume check"
        ),
    },
}


def _builtin(name) -> dict:
    """The BUILTIN_SEQUENCES entry for a name, or a ConfigError."""
    entry = BUILTIN_SEQUENCES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ConfigError(
            "sequence.builtin",
            f"unknown name {name!r}; choose from {sorted(BUILTIN_SEQUENCES)}",
        )
    return entry
