import pytest

from hostguest import units


@pytest.fixture
def multipole_lines(monkeypatch):
    """Line counts handed to the box expansions, to show a case takes them."""
    counts = []
    inner = units._multipole_sum

    def counted(out, freqs, centers, *rest):
        counts.append(centers.size)
        return inner(out, freqs, centers, *rest)

    monkeypatch.setattr(units, "_multipole_sum", counted)
    return counts
