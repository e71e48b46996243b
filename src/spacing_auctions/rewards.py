"""Per-win reward sequences r(l) over the gap l since the last conversion.

All built-in kinds are increasing and concave with r(0) = 0 and increments
bounded by 1, which is what the rest of the package assumes.  The
``"table"`` kind holds arbitrary user values and is validated rather than
trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

_KINDS = ("sqrt", "cap_linear", "power", "table")


@dataclass(frozen=True)
class RewardFn:
    """Reward sequence; immutable, safe to share across threads."""

    kind: str
    cap: Optional[int] = None
    alpha: Optional[float] = None
    values: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.kind == "cap_linear":
            if self.cap is None or self.cap < 1:
                raise ValueError("cap_linear requires a positive integer cap")
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise ValueError("power requires alpha in (0, 1]")
        if self.kind == "table":
            if not self.values:
                raise ValueError("table requires a non-empty value list")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def l_max(self) -> Optional[int]:
        """Largest gap a table reward can evaluate; None for closed forms."""
        return len(self.values) - 1 if self.kind == "table" else None

    def __call__(self, l: int) -> float:
        return eval_r(self, l)


def sqrt_reward() -> RewardFn:
    return RewardFn("sqrt")


def cap_linear_reward(cap: int) -> RewardFn:
    return RewardFn("cap_linear", cap=cap)


def power_reward(alpha: float) -> RewardFn:
    return RewardFn("power", alpha=alpha)


def table_reward(values: Sequence[float]) -> RewardFn:
    return RewardFn("table", values=tuple(values))


def eval_r(f: RewardFn, l: int) -> float:
    """r(l) for an integer gap l >= 0."""
    if l < 0:
        raise ValueError(f"gap must be nonnegative, got {l}")
    if f.kind == "sqrt":
        return math.sqrt(l)
    if f.kind == "cap_linear":
        return float(min(l, f.cap))
    if f.kind == "power":
        return float(l) ** f.alpha
    if l >= len(f.values):
        raise ValueError(f"gap {l} beyond table range {len(f.values) - 1}")
    return f.values[l]


def eval_r_capped(f: RewardFn, l: int, m: int) -> float:
    """r_m(l) = r(min(l, m)); the reward the reduced chain pays in state l."""
    if m < 1:
        raise ValueError(f"cap m must be positive, got {m}")
    return eval_r(f, min(l, m))


def reward_table(f: RewardFn, horizon: int) -> list[float]:
    """[r(0), ..., r(horizon)] as a plain list."""
    return [eval_r(f, l) for l in range(horizon + 1)]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation_index: Optional[int] = None
    reason: Optional[str] = None


def validate_reward(f: RewardFn, horizon: int, tol: float = 1e-12) -> ValidationResult:
    """Check r(0)=0 and 0 <= dr(l+1) <= dr(l) <= 1 over increments up to horizon.

    The chained inequality is indexed by l; the first failing index is
    reported instead of raising.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    r = reward_table(f, horizon)
    if abs(r[0]) > tol:
        return ValidationResult(False, 0, f"r(0) = {r[0]} != 0")
    inc = [r[l + 1] - r[l] for l in range(horizon)]
    if inc[0] < -tol:
        return ValidationResult(False, 0, f"increment at 0 is negative ({inc[0]})")
    for l in range(horizon - 1):
        if inc[l] > 1.0 + tol:
            return ValidationResult(False, l, f"increment at {l} is {inc[l]} > 1")
        if inc[l + 1] < -tol:
            return ValidationResult(False, l, f"increment at {l + 1} is negative ({inc[l + 1]})")
        if inc[l + 1] > inc[l] + tol:
            return ValidationResult(
                False, l, f"increment {inc[l + 1]} at {l + 1} exceeds increment {inc[l]} at {l}"
            )
    if inc[horizon - 1] > 1.0 + tol:
        return ValidationResult(False, horizon - 1, f"increment at {horizon - 1} exceeds 1")
    return ValidationResult(True)


def perturb_strictly_concave(f: RewardFn, eps: float, horizon: int) -> RewardFn:
    """Tabulated r'(l) = (r(l) + eps*(1 - 2^-l)) / (1 + eps), l = 0..horizon.

    Keeps r'(0) = 0, monotonicity and the unit increment bound, and makes the
    increments strictly decreasing, since the added term contributes
    eps * 2^-(l+1) to the l-th increment.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    scale = 1.0 / (1.0 + eps)
    values = [(eval_r(f, l) + eps * (1.0 - 2.0 ** (-l))) * scale for l in range(horizon + 1)]
    values[0] = 0.0
    return RewardFn("table", values=tuple(values))


def reward_from_config(fragment: dict) -> RewardFn:
    """Build a RewardFn from the config fragment {"type": ..., ...}."""
    kind = fragment.get("type")
    if kind == "sqrt":
        return sqrt_reward()
    if kind == "cap_linear":
        return cap_linear_reward(int(fragment["cap"]))
    if kind == "power":
        return power_reward(float(fragment["alpha"]))
    if kind == "table":
        return table_reward([float(v) for v in fragment["values"]])
    raise ValueError(f"unknown reward type {kind!r}")
