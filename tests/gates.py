"""One statistical gate for the stochastic tests.

A test that compares ``m`` estimates with their references asks each to
hold at a Sidak share of a family-wise alpha of 0.01, ``1 - 0.99 ** (1 / m)``,
so that an honest run fails the whole family with probability 0.01 however
many points it has.  The bound comes in two units:

* :func:`z_bound`, in standard errors, two-sided normal, for Monte Carlo
  estimates;
* :func:`half_width_bound`, in 95% half-widths of the simulator's interval,
  read off the 31-df t law of its 32 batch means.

:func:`assert_family` checks every point of a family against its bound and
names every point's gap and the worst in its message.
"""

from statistics import NormalDist

from scipy.special import stdtrit

FAMILY_CONFIDENCE = 0.99  # one minus the family-wise alpha


def _share(m: int) -> float:
    """Each of ``m`` comparisons' share of the family-wise alpha."""
    return 1.0 - FAMILY_CONFIDENCE ** (1 / m)


def z_bound(m: int) -> float:
    """Per-point bound for ``m`` comparisons, in standard errors."""
    return NormalDist().inv_cdf(1.0 - _share(m) / 2)


def half_width_bound(m: int) -> float:
    """Per-point bound for ``m`` comparisons, in batch-means 95% half-widths."""
    return float(stdtrit(31, 1.0 - _share(m) / 2) / stdtrit(31, 0.975))


def assert_family(gaps: dict, bound: float, unit: str) -> float:
    """Require every gap, keyed by its point, to lie within ``bound``.

    Gaps are absolute distances in ``unit``.  The message lists every
    point's gap and the worst; returns the worst.
    """
    worst = max(gaps, key=gaps.get)
    listing = ", ".join(f"{point}: {gap:.2f}" for point, gap in gaps.items())
    assert gaps[worst] <= bound, (
        f"{worst} lies {gaps[worst]:.2f} {unit} out, past the bound of {bound:.2f}; "
        f"every gap: {listing}"
    )
    return gaps[worst]
