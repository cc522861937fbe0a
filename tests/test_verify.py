"""Planted faults: each acceptance check must notice a wrong input and name
it, and run_check must time a check that raised."""

import time

from qflab import arith, verify
from qflab.forms import enumerate_reduced_forms


def test_density_identity_names_a_planted_mismatch(monkeypatch):
    real = verify._density_numerators

    def planted(Ds, ells):
        numerators = real(Ds, ells)
        numerators[list(Ds).index(47), list(ells).index(7)] += 1
        return numerators

    monkeypatch.setattr(verify, "_density_numerators", planted)
    result = verify.run_check(verify.check_density_identity, fast=True)
    first = enumerate_reduced_forms(47).forms[0]
    assert not result.passed
    assert result.detail == f"mismatch at form {first.triple()}, ell = 7"


def test_density_numerators_are_g_squarefree_times_ell_squared():
    """The density check's table of N(ell), against arith.g_squarefree at
    every D <= 500 and every squarefree ell <= 30; g depends on D alone."""
    Ds = [D for D in range(3, 501) if D % 4 in (0, 3)]
    numerators = verify._density_numerators(Ds, verify.SQUAREFREE_30)
    assert numerators.shape == (len(Ds), len(verify.SQUAREFREE_30))
    for D, row in zip(Ds, numerators.tolist()):
        f = enumerate_reduced_forms(D).forms[0]
        assert row == [arith.g_squarefree(f, ell) * ell * ell for ell in verify.SQUAREFREE_30]


def test_density_identity_counts_every_pair():
    result = verify.run_check(verify.check_density_identity, fast=True)
    forms = verify._reduced_forms_with_d_up_to(120)
    assert result.passed and result.measured["checked"] == len(forms) * 19


def test_class_number_formula_fails_on_a_wrong_enumeration(monkeypatch):
    real = arith.enumerate_reduced_forms

    def one_short(D):
        cls = real(D)
        return type(cls)(D, cls.forms[:-1]) if D == 71 else cls

    monkeypatch.setattr(arith, "enumerate_reduced_forms", one_short)
    result = verify.run_check(verify.check_class_numbers, fast=True)
    assert not result.passed
    assert result.detail.startswith("raised ConsistencyError: analytic h(-71)")


def test_run_check_times_a_check_that_raised():
    def check_sleeps_then_raises(fast=False):
        time.sleep(0.05)
        raise RuntimeError("planted")

    result = verify.run_check(check_sleeps_then_raises)
    assert not result.passed and result.detail == "raised RuntimeError: planted"
    assert 0.05 <= result.seconds < 5.0
