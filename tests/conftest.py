import pytest


@pytest.fixture
def built(monkeypatch):
    """The OperatorParams of every operator_stack chunk the test's sweeps build, in order."""
    import kickspec.spectra as spectra

    build, params = spectra.operator_stack, []

    def counted(pa, xs, thetas):
        params.append(pa)
        return build(pa, xs, thetas)

    monkeypatch.setattr(spectra, "operator_stack", counted)
    return params
