"""Fixtures shared by the suites."""

from collections import OrderedDict

import pytest

import dglevels.resolve


@pytest.fixture
def cold_koszul(monkeypatch):
    """An empty memo of checked Koszul resolutions for this test alone."""
    memo = OrderedDict()
    monkeypatch.setattr(dglevels.resolve, "_koszul_memo", memo)
    return memo
