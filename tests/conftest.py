import pytest

from rotaperm.field import FieldCtx


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
    """The degree of every projective decision made while the test runs."""
    import rotaperm.permcheck as pc
    degrees = []
    original = pc.projective_obstruction

    def counted(ctx, fam):
        degrees.append(ctx.m)
        return original(ctx, fam)

    monkeypatch.setattr(pc, "projective_obstruction", counted)
    return degrees
