"""Shared grading helpers of the experiment recipes."""

import pytest

from wsqopt.experiments import cut_ratio


class TestCutRatio:
    def test_ratio_to_positive_maximum(self):
        assert cut_ratio(6.0, 8.0) == pytest.approx(0.75)

    def test_zero_maximum_grades_by_optimality(self):
        assert cut_ratio(0.0, 0.0) == 1.0
        assert cut_ratio(-3.0, 0.0) == 0.0
