import pytest


@pytest.fixture
def built(monkeypatch):
    """The OperatorParams of every chunk the test's sweeps build, in order, by either
    builder: operator_stack or the Harper sweeps' harper_jacobi_stack."""
    import kickspec.spectra as spectra

    params = []

    def counted(build):
        def count(pa, xs, thetas):
            params.append(pa)
            return build(pa, xs, thetas)
        return count

    for name in ("operator_stack", "harper_jacobi_stack"):
        monkeypatch.setattr(spectra, name, counted(getattr(spectra, name)))
    return params
