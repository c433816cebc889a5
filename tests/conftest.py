import pytest

from rmlab import harness
from rmlab.rmcodes import WeightDistribution


@pytest.fixture
def patch_one_coset(monkeypatch):
    """patch_one_coset(target, weight, extra) gives coset id target of every
    dual table a column of its own, whose distribution is the true one with
    extra more words of the given weight."""
    real = harness._dual_table

    def patch(target, weight, extra):
        def patched(code, basis, cap=None):
            ids, distribution = real(code, basis, cap)
            own = ids.max() + 1
            dense = distribution(ids[target]).to_dense()
            dense[weight] += extra
            ids = ids.copy()
            ids[target] = own
            return ids, lambda i: WeightDistribution.from_dense(dense) if i == own else distribution(i)

        monkeypatch.setattr(harness, "_dual_table", patched)

    return patch
