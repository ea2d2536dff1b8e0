import pytest

from rotaperm.field import DEFAULT_MODULI, FieldCtx, shared_field


@pytest.fixture(scope="session")
def f8():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def f32():
    return FieldCtx(5)


@pytest.fixture(scope="session")
def f128():
    return FieldCtx(7)


@pytest.fixture
def projective_degrees(monkeypatch):
    """The degree of every vector the block decision (permcheck._decide_rows)
    decides while the test runs, one entry per row.  The shared contexts
    (field.shared_field), GF(2)'s included, are dropped first, so that
    their permutation masks are built again inside the test and counted."""
    import rotaperm.permcheck as pc
    from rotaperm.field import shared_field
    degrees = []
    original = pc._decide_rows

    def counted(ctx, rows):
        degrees.extend([ctx.m] * len(rows))
        return original(ctx, rows)

    shared_field.cache_clear()
    monkeypatch.setattr(pc, "_decide_rows", counted)
    return degrees


@pytest.fixture
def patch_modulus(monkeypatch):
    """patch(m, modulus) makes modulus the table entry DEFAULT_MODULI[m] for
    the rest of the test, so FieldCtx(m) builds that representation of
    GF(2^m).  shared_field's cache is cleared before each patch and after
    the test, so no shared context outlives the modulus it was built with."""
    def patch(m, modulus):
        shared_field.cache_clear()
        monkeypatch.setitem(DEFAULT_MODULI, m, modulus)

    yield patch
    shared_field.cache_clear()
