"""Block scheme and the dyadic filtration: exactness is the whole point.

Every check here is integer or dyadic-rational arithmetic; a single ulp
of drift is a failure.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from powcorr import (DomainError, DyadicRational, NumericalError,
                     ResourceError, as_dyadic, probe)
from powcorr.probe import (BlockScheme, FiltrationRun, blocks, filtration,
                           filtration_runs, mu, refinement_holds)


# ---------------------------------------------------------------------------
# block scheme

def test_blocks_recognizes_tenth_powers():
    assert blocks(1024).K == 2
    assert blocks(59049).K == 3
    assert blocks(9765625).K == 5


def test_blocks_structure():
    scheme = blocks(1024)
    assert scheme.n_blocks == 512
    assert scheme.block(1) == range(1, 3)
    assert scheme.block(512) == range(1023, 1025)
    covered = [n for k in range(1, 513) for n in scheme.block(k)]
    assert covered == list(range(1, 1025))


@pytest.mark.parametrize("bad", [1000, 1023, 60000, 5])
def test_blocks_rejects_and_names_a_nearby_valid_n(bad):
    with pytest.raises(DomainError) as err:
        blocks(bad)
    # the message must point at an actual 10th power
    digits = [int(tok) for tok in str(err.value).replace(",", " ").split()
              if tok.isdigit()]
    assert any(round(d ** 0.1) ** 10 == d and d >= 1024 for d in digits)


# ---------------------------------------------------------------------------
# the exact dyadic exponent mu

def test_mu_hand_values():
    # x = 2, k = 1, K = 2: x^((k+1/2)K) = 2^3, so mu = 3
    assert mu(DyadicRational.from_int(2), 1, 2) == 3
    # x = 3/2: (3/2)^3 = 3.375 in [2, 4), so mu = 1
    assert mu(DyadicRational(3, 1), 1, 2) == 1
    # (3/2)^5 = 7.59 in [4, 8), so mu = 2
    assert mu(DyadicRational(3, 1), 2, 2) == 2


@given(st.integers(min_value=3, max_value=40),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=3))
@settings(max_examples=150, deadline=None)
def test_mu_matches_float_log(num, k, K):
    x = DyadicRational(num, 1)  # num / 2 in (1, 20]
    if not x > DyadicRational.from_int(1):
        return
    got = mu(x, k, K)
    expo = (2 * k + 1) * K  # 2 * (k + 1/2) * K
    exact = Fraction(num, 2) ** expo  # x^(expo), i.e. x^(2*(k+1/2)K)
    # got is floor(log2 sqrt(exact))
    assert 4 ** got <= exact < 4 ** (got + 1)


# ---------------------------------------------------------------------------
# filtration partitions

def test_filtration_hand_example():
    part = filtration(DyadicRational(3, 1), 1, 2)
    assert part.N_k == 5
    assert [str(z) for z in part.z] == [
        "3/2^1", "2/2^0", "17/2^3", "9/2^2", "19/2^3", "5/2^1"]
    assert part.mus == (1, 3, 3, 3, 3)


def test_filtration_endpoints_and_widths_are_exact():
    for A in (DyadicRational(3, 1), DyadicRational(5, 2)):
        for K in (2, 3):
            for k in (1, 2, 3):
                part = filtration(A, k, K)
                assert part.z[0] == A
                assert part.z[-1] == A + DyadicRational.from_int(1)
                assert all(b > a for a, b in zip(part.z, part.z[1:]))
                # each atom has width exactly 2^-mu
                for i, m in enumerate(part.mus):
                    width = part.z[i + 1] - part.z[i]
                    assert width == DyadicRational(1, m)
                assert part.mus == tuple(sorted(part.mus))


def test_filtration_runs_match_materialized_partition():
    A = DyadicRational(3, 1)
    part = filtration(A, 2, 3)
    runs, total = filtration_runs(A, 2, 3)
    assert total == part.N_k
    assert sum(r.count for r in runs) == part.N_k
    # run starts are partition points and run mus match atom widths
    pos = 0
    for run in runs:
        assert run.start == part.z[pos]
        for i in range(run.count):
            assert part.mus[pos + i] == run.mu
        pos += run.count
    assert runs[-1].end == A + DyadicRational.from_int(1)


def test_run_walk_handles_giant_partitions_cheaply():
    # about 9.6e8 atoms; materializing would need gigabytes, the
    # run-length walk needs a handful of bisections
    A = DyadicRational(3, 1)
    runs, total = filtration_runs(A, 8, 3)
    assert total == sum(r.count for r in runs)
    assert total > 10 ** 8
    assert runs[0].start == A
    assert runs[-1].end == A + DyadicRational.from_int(1)
    assert all(a.mu <= b.mu for a, b in zip(runs, runs[1:]))


def test_atom_cap_blocks_materialization():
    with pytest.raises(ResourceError):
        filtration(DyadicRational(3, 1), 8, 3)
    # a tighter explicit cap fires earlier
    with pytest.raises(ResourceError):
        filtration(DyadicRational(3, 1), 3, 3, atom_cap=10)


def test_atom_accessor_bounds():
    part = filtration(DyadicRational(3, 1), 1, 2)
    lo, hi = part.atom(0)
    assert (lo, hi) == (part.z[0], part.z[1])
    with pytest.raises(DomainError):
        part.atom(5)
    with pytest.raises(DomainError):
        part.atom(-1)


# ---------------------------------------------------------------------------
# refinement: the partitions form a filtration

@pytest.mark.parametrize("A,K", [(DyadicRational(3, 1), 2),
                                 (DyadicRational(5, 2), 2),
                                 (DyadicRational(3, 1), 3)])
def test_partitions_refine_in_k(A, K):
    for j in (1, 2):
        for k in (2, 3, 4):
            if k > j:
                assert refinement_holds(A, j, k, K)


def test_refinement_via_set_containment_oracle():
    A = DyadicRational(3, 1)
    coarse = filtration(A, 1, 2)
    fine = filtration(A, 3, 2)
    points_fine = set(fine.z)
    assert set(coarse.z) <= points_fine
    assert refinement_holds(A, 1, 3, 2)


def test_refinement_run_walk_scales_to_huge_k():
    # neither partition fits in memory; the walk stays exact regardless
    assert refinement_holds(DyadicRational(3, 1), 7, 8, 3)


def test_refinement_rejects_bad_order():
    with pytest.raises(DomainError):
        refinement_holds(DyadicRational(3, 1), 3, 1, 2)


@pytest.mark.parametrize("A, k, K", [(DyadicRational(3, 1), 1, 2),
                                     (DyadicRational(3, 1), 3, 2),
                                     (DyadicRational(11, 3), 2, 3),
                                     (DyadicRational(2049, 11), 2, 2)])
def test_one_atom_read_off_the_runs_is_the_materialized_atom(A, k, K):
    part = filtration(A, k, K)
    for i in range(part.N_k):
        ends = probe._filtration_atom(A, k, K, i)
        assert ends == part.atom(i)
        assert tuple(map(repr, ends)) == tuple(map(repr, part.atom(i)))
    for bad in (-1, part.N_k):
        with pytest.raises(DomainError, match=f"atom index {bad} outside"):
            probe._filtration_atom(A, k, K, bad)


def test_one_atom_keeps_the_partition_refusals(monkeypatch):
    A = DyadicRational(3, 1)
    with pytest.raises(ResourceError):
        probe._filtration_atom(A, 8, 3, 0)
    # a run wider than the one before it is refused, as by `filtration`
    runs, total = filtration_runs(A, 2, 2)
    widened = (runs[0], FiltrationRun(runs[1].start, runs[0].mu - 1,
                                      runs[1].count), *runs[2:])
    monkeypatch.setattr(probe, "filtration_runs",
                        lambda *args: (widened, total))
    for call in (lambda: filtration(A, 2, 2),
                 lambda: probe._filtration_atom(A, 2, 2, 0)):
        with pytest.raises(NumericalError, match="atom width exponent mu"):
            call()
