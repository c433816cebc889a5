import pytest

from rmlab import harness


@pytest.fixture
def patch_one_coset(monkeypatch):
    """patch_one_coset(target, change) gives coset id target of every dual
    table a column of its own, whose distribution is change(the true one)."""
    real = harness._dual_table

    def patch(target, change):
        def patched(code, basis, cap=None):
            ids, distribution = real(code, basis, cap)
            own = ids.max() + 1
            true = distribution(ids[target])
            ids = ids.copy()
            ids[target] = own
            return ids, lambda i: change(true) if i == own else distribution(i)

        monkeypatch.setattr(harness, "_dual_table", patched)

    return patch
