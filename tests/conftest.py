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


@pytest.fixture
def blas():
    """(set, get) of the loaded OpenBLAS's thread count, at 2 for the test and put back after."""
    import kickspec.linalg as linalg

    found = linalg._openblas()
    if not found:
        pytest.skip("no OpenBLAS with thread-count symbols is loaded: the thread rule does nothing")
    set_threads, get_threads = found
    before = get_threads()
    set_threads(2)
    if get_threads() != 2:
        set_threads(before)
        pytest.skip("this OpenBLAS does not run 2 threads, so 1 is not told from the default")
    yield found
    set_threads(before)
