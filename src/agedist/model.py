"""Source and timing distributions with their derived scalar quantities.

The model couples an importance distribution (the per-packet penalty for
never delivering a packet) with an interspeaking distribution (the gaps
between the externally scheduled transmission opportunities).  Everything
the solvers need -- tail probabilities, truncated means, the distortion
floor and the buffer-size bounds -- is exposed here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

PROB_TOL = 1e-12
FINITE_PMF_MAX_SUPPORT = 64


def check_eta(eta: float) -> None:
    """Reject an age weight that is not a finite positive number (a bool or a string included)."""
    if not (is_number(eta, (int, float, np.number)) and math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


def is_number(x, kind=(int, float)) -> bool:
    """An instance of ``kind`` but not a bool, though Python counts a bool as an int."""
    return isinstance(x, kind) and not isinstance(x, bool)


def numbers(field: str, raw) -> tuple[float, ...]:
    """A JSON list of numbers as floats; anything else is a ValueError naming ``field``."""
    if not (isinstance(raw, list) and all(map(is_number, raw))):
        raise ValueError(f"{field} must be a list of numbers, got {raw!r}")
    return tuple(map(float, raw))


@dataclass(frozen=True)
class ImportanceDist:
    """Finite importance distribution: values strictly increasing, probs > 0."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(a) for a in self.probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if len(values) < 1:
            raise ValueError("importance distribution needs at least one value")
        if len(values) != len(probs):
            raise ValueError("values and probs must have equal length")
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError(f"importance values must be finite and nonnegative, got {values}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("importance values must be strictly increasing")
        if not all(math.isfinite(a) and a > 0 for a in probs):
            raise ValueError(f"importance probabilities must be finite and positive, got {probs}")
        if abs(sum(probs) - 1.0) > PROB_TOL:
            raise ValueError(f"importance probabilities sum to {sum(probs)!r}, not 1")

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def v_min(self) -> float:
        return self.values[0]

    @property
    def v_max(self) -> float:
        return self.values[-1]

    @property
    def mean(self) -> float:
        return float(sum(v * a for v, a in zip(self.values, self.probs)))


@dataclass(frozen=True)
class Geometric:
    """Interspeaking gap with Pr(Z = k) = p(1-p)^(k-1), k >= 1.

    Closed forms are used throughout so there is no truncation error.
    """

    p: float

    def __post_init__(self):
        if not (is_number(self.p) and 0.0 < self.p <= 1.0):
            raise ValueError(f"geometric parameter must be a number in (0, 1], got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    def pmf(self, k: int) -> float:
        if k < 1:
            return 0.0
        return self.p * (1.0 - self.p) ** (k - 1)

    def tail(self, k: int) -> float:
        """Pr(Z >= k)."""
        if k <= 1:
            return 1.0
        return (1.0 - self.p) ** (k - 1)

    def excess_mean(self, K: int) -> float:
        """E[(Z - K)^+]."""
        return (1.0 - self.p) ** K / self.p


@dataclass(frozen=True)
class FinitePMF:
    """Interspeaking gap on {1, ..., len(probs)} given by an explicit PMF."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(x) for x in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ValueError("finite PMF needs at least one entry")
        if len(probs) > FINITE_PMF_MAX_SUPPORT:
            raise ValueError(
                f"finite PMF support capped at {FINITE_PMF_MAX_SUPPORT}, got {len(probs)}"
            )
        if not all(math.isfinite(x) and x >= 0 for x in probs):
            raise ValueError(f"finite PMF entries must be finite and nonnegative, got {probs}")
        if abs(sum(probs) - 1.0) > PROB_TOL:
            raise ValueError(f"finite PMF sums to {sum(probs)!r}, not 1")

    @property
    def mean(self) -> float:
        return float(sum(k * x for k, x in enumerate(self.probs, start=1)))

    def pmf(self, k: int) -> float:
        if 1 <= k <= len(self.probs):
            return self.probs[k - 1]
        return 0.0

    def tail(self, k: int) -> float:
        if k <= 1:
            return 1.0
        return float(sum(self.probs[k - 1 :]))

    def excess_mean(self, K: int) -> float:
        return float(sum((k - K) * x for k, x in enumerate(self.probs, start=1) if k > K))


InterspeakDist = Union[Geometric, FinitePMF]


@dataclass(frozen=True)
class Model:
    """Immutable pairing of importance and interspeaking distributions."""

    v: ImportanceDist
    z: InterspeakDist

    @property
    def mu(self) -> float:
        """Mean interspeaking time E[Z]."""
        return self.z.mean

    @property
    def mean_importance(self) -> float:
        return self.v.mean

    def z_pmf(self, k: int) -> float:
        if k < 1:
            raise ValueError("z_pmf requires k >= 1")
        return self.z.pmf(k)

    def z_tail(self, k: int) -> float:
        """q_k = Pr(Z >= k)."""
        if k < 1:
            raise ValueError("z_tail requires k >= 1")
        return self.z.tail(k)

    def z_excess_mean(self, K: int) -> float:
        """E[(Z - K)^+]."""
        if K < 1:
            raise ValueError("z_excess_mean requires K >= 1")
        return self.z.excess_mean(K)

    def d_min(self) -> float:
        """Distortion floor: the sender delivers at most a 1/mu fraction of packets.

        Greedily keeps probability mass on the largest values; whatever mass
        cannot be delivered, charged cheapest-first, is unavoidable distortion.
        """
        rate = 1.0 / self.mu
        probs = self.v.probs
        values = self.v.values
        suffix = 0.0
        j_star = 0  # 0-based index; -1 signals "even the full mass is below rate"
        for j in range(len(probs) - 1, -1, -1):
            suffix += probs[j]
            if suffix >= rate:
                j_star = j
                break
        else:
            return 0.0
        head = sum(a * v for a, v in zip(probs[:j_star], values[:j_star]))
        return float(head + (suffix - rate) * values[j_star])

    def eta_max(self) -> float:
        """Weight above which sending the freshest packet is always optimal."""
        return (self.v.v_max - self.v.v_min) / self.mu

    def buffer_bound(self, eta: float) -> int:
        """K(eta) = ceil((v_max - v_min) / (eta * mu)), at least 1; 1 when every slot speaks
        (Pr(Z >= 2) = 0), since no buffer then outlives its slot."""
        bound = self.buffer_bound_i(eta, self.v.size - 1)
        return 1 if self.z.tail(2) == 0.0 else max(1, bound)

    def buffer_bound_i(self, eta: float, i: int) -> int:
        """K_i(eta) = ceil((v_i - v_min) / (eta * mu)) for the i-th value (0-based)."""
        check_eta(eta)
        bound = (self.v.values[i] - self.v.v_min) / (eta * self.mu)
        if not math.isfinite(bound):
            raise ValueError(f"eta={eta} is too small: the buffer bound overflows")
        return math.ceil(bound)

    def reach_bounds(self, eta: float) -> np.ndarray:
        """K_i(eta) for every importance value, as an int array."""
        return np.array([self.buffer_bound_i(eta, i) for i in range(self.v.size)], dtype=np.int64)

    # -- configuration document ------------------------------------------------

    def to_config(self) -> dict:
        if isinstance(self.z, Geometric):
            z_cfg = {"geometric": self.z.p}
        else:
            z_cfg = {"pmf": list(self.z.probs)}
        return {"values": list(self.v.values), "probs": list(self.v.probs), "z": z_cfg}

    @classmethod
    def from_config(cls, cfg: dict) -> "Model":
        try:
            values, probs = (numbers(f'model config "{k}"', cfg[k]) for k in ("values", "probs"))
            z_cfg = cfg["z"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"model config missing field: {exc}") from exc
        if isinstance(z_cfg, dict) and "geometric" in z_cfg:
            z: InterspeakDist = Geometric(z_cfg["geometric"])
        elif isinstance(z_cfg, dict) and "pmf" in z_cfg:
            z = FinitePMF(numbers('model config "z.pmf"', z_cfg["pmf"]))
        else:
            raise ValueError(f'model config "z" must hold "geometric" or "pmf", got {z_cfg!r}')
        return cls(v=ImportanceDist(values, probs), z=z)

    @classmethod
    def from_json(cls, path: str) -> "Model":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_config(json.load(fh))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_config(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
