"""Tests that pin the package's public API: each layer module's `__all__`
states its names once, and `cgexact` re-exports every one of them."""

from __future__ import annotations

import pytest

import cgexact
from cgexact import angular, exact, hypseries, prob, verify

LAYERS = (angular, exact, hypseries, prob, verify)

PUBLIC = {
    "BinomialParams", "CgLabels", "DegenerateLabels", "HalfInt", "HypergeomParams",
    "InvalidLabelsError", "PmfTable", "ProductStateVector", "SUITES", "SignedSqrtRational",
    "binomial", "binomial_convolve", "binomial_limit_tv", "binomial_pmf", "cg_3f2",
    "cg_degenerate_squared", "cg_ladder_rows", "cg_ladder_stretched", "cg_racah", "cg_to_3jm",
    "conditional_probability", "delta_abc", "factorial", "hypergeom_mean", "hypergeom_mgf",
    "hypergeom_pgf", "hypergeom_pmf", "hypergeom_variance", "racah_zsum_terms",
    "rational_to_decimal", "run_backend_agreement", "run_degenerate_identity",
    "run_distribution_identities", "selection_rule_violation", "sqrt_to_decimal",
}


def test_each_name_is_public_once():
    assert len(cgexact.__all__) == len(set(cgexact.__all__))


def test_public_names():
    assert set(cgexact.__all__) == PUBLIC


def test_one_public_exception_class():
    # a structural label violation is the one error with its own class;
    # every other failed precondition raises plain ValueError
    exceptions = {
        name for name in cgexact.__all__
        if isinstance(getattr(cgexact, name), type)
        and issubclass(getattr(cgexact, name), BaseException)
    }
    assert exceptions == {"InvalidLabelsError"}
    assert cgexact.InvalidLabelsError.__bases__ == (ValueError,)


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_layer_name_resolves_in_the_package(module):
    for name in module.__all__:
        assert getattr(cgexact, name) is getattr(module, name)


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_public_functions_and_classes_are_defined_where_listed(module):
    # a tracer that wraps a layer's functions skips any defined elsewhere
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, type) or callable(value):
            assert value.__module__ == module.__name__, name
