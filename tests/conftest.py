import pytest

from tdyn import cli, exact_linalg, group_model, growth, padic, reidemeister


def _clear_memos():
    """Forget every per-system result the library keeps between calls."""
    for memo in (exact_linalg.exterior_power_polynomials, group_model.tameness_check,
                 growth.growth_rate, cli._zeta_of, cli._system_of):
        memo.cache_clear()
    reidemeister._last_sequence = (None, None)


@pytest.fixture(autouse=True)
def clear_memos():
    """Each test starts with no result kept from another; a test that runs a
    command twice under different routes calls the fixture's value between."""
    _clear_memos()
    return _clear_memos


@pytest.fixture
def char_poly_calls(monkeypatch):
    """The matrices char_poly is called on through every module on the way
    to a growth or p-adic answer, exact_linalg's own commuting_form
    included.  padic binds no char_poly of its own; it is patched too, so
    that one it gains is counted."""
    calls = []
    original = exact_linalg.char_poly

    def counting(m):
        calls.append(m)
        return original(m)
    for module in (cli, exact_linalg, group_model, growth, padic):
        monkeypatch.setattr(module, "char_poly", counting, raising=False)
    return calls
