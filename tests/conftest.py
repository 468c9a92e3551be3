"""Shared fixtures: hypothesis profiles, session-scoped Monte Carlo runs, and
probes of which CSV reader a load used."""

import os
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import settings

# When a hypothesis test fails, hypothesis' report hook imports this module,
# which loads libcst where it is installed; libcst's import raises a
# DeprecationWarning that each test's filterwarnings("error") would turn into
# an INTERNALERROR ending the session. Imported once here, with that warning
# ignored, the hook finds it loaded. Test bodies and fixtures keep warnings as errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:         # libcst absent: the hook then imports nothing that warns
        pass

settings.register_profile("ci", deadline=timedelta(milliseconds=4000))
settings.register_profile("dev", max_examples=20)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))

DATA_DIR = Path(__file__).parent / "data"

# One fixed master seed for every shared Monte Carlo fixture.
MC_SEED = 20240601


def pytest_collection_modifyitems(items):
    """Every warning raised in a test here, fixtures included, is an error.

    Set per test rather than in ``pyproject.toml`` so that the benchmark's
    own self-tests, collected from ``perfbench/``, keep their settings.
    """
    for item in items:
        if item.path.is_relative_to(Path(__file__).parent):
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def c_reader(monkeypatch) -> list[bool]:
    """One entry per file offered to numpy's C reader during the test: True where
    it returned the columns, False where csv.reader read the file instead."""
    from multippi import ingest

    calls = []
    real = ingest._loadtxt_columns

    def spy(*args):
        columns = real(*args)
        calls.append(columns is not None)
        return columns

    monkeypatch.setattr(ingest, "_loadtxt_columns", spy)
    return calls


@pytest.fixture
def csv_reader_only(monkeypatch) -> None:
    """Every CSV load in the test goes to the csv.reader loop."""
    from multippi import ingest

    monkeypatch.setattr(ingest, "_loadtxt_columns", lambda *args: None)


@pytest.fixture(scope="session")
def asymmetric_coverage_run():
    """1000-replication coverage run: K=3, d=2, n=200, N=800, ~0.6-accuracy
    asymmetric noise, tuned lambda. Shared by the ppi/simulate tests and the
    acceptance criteria 4-5."""
    from multippi import simulate

    spec = simulate.default_spec(seed=MC_SEED)
    return simulate.coverage_experiment(
        spec, simulate.ASYMMETRIC_3CLASS, reps=1000, alpha=0.05,
        lambda_mode="tuned", keep_replications=True)


@pytest.fixture(scope="session")
def identity_coverage_run():
    from multippi import simulate

    spec = simulate.default_spec(seed=MC_SEED + 2)
    return simulate.coverage_experiment(
        spec, simulate.NoiseModel.identity(3), reps=200, alpha=0.05)


@pytest.fixture(scope="session")
def uniform_coverage_run():
    from multippi import simulate

    spec = simulate.default_spec(seed=MC_SEED + 3)
    return simulate.coverage_experiment(
        spec, simulate.NoiseModel.uniform(3), reps=200, alpha=0.05)
