"""Shared fixtures, and one PASS/FAIL line per acceptance criterion after
the run."""

import pytest

CRITERIA = {
    "test_c1": "C1 exact-unlearning equivalence",
    "test_c2": "C2 gradient fidelity",
    "test_c3": "C3 partition invariants",
    "test_c4": "C4 partition benefit over random sharding",
    "test_c5": "C5 deletion monotonicity",
    "test_c6": "C6 efficiency ratio",
    "test_c7": "C7 metric oracle equivalence",
    "test_c8": "C8 checkpoint persistence",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    for prefix, title in CRITERIA.items():
        if name.startswith(prefix):
            if report.when == "call":
                _outcomes[title] = report.outcome
            elif report.when == "setup" and report.outcome != "passed":
                _outcomes[title] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for title in CRITERIA.values():
        outcome = _outcomes.get(title)
        if outcome is None:
            continue
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"ACCEPTANCE {title}: {status}")


@pytest.fixture(scope="session")
def default_splits():
    """(train, validation, test) of the default config's corpus (seed 7)."""
    from sru.config import ExperimentConfig
    from sru.corpus import generate_synthetic, split
    from sru.numerics import derive_seed

    config = ExperimentConfig.defaults()
    data = generate_synthetic(
        num_sessions=config["synthetic.sessions"], vocab_size=config["synthetic.items"],
        num_clusters=config["synthetic.clusters"], noise_rate=config["synthetic.noise"],
        seed=derive_seed(config.seed, "synthetic"), min_len=config["synthetic.min_len"],
        max_len=config["synthetic.max_len"])
    return split(data, seed=derive_seed(config.seed, "split"))


@pytest.fixture(scope="session")
def default_state(default_splits):
    """A state fitted at the default config on ``default_splits``. Shared
    by the whole session, so a test must not change it in place."""
    from sru.config import ExperimentConfig
    from sru.pipeline import fit_state

    train, validation, _ = default_splits
    return fit_state(train, validation, ExperimentConfig.defaults())


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes ``n`` CPUs usable and pins BLAS to one thread,
    so that ``train_many`` trains n models at a time: in process for
    n = 1, across a process pool above. ``cores.pools`` lists the
    ``max_workers`` of every process pool started since."""
    import concurrent.futures
    import os

    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **options):
            pools.append(max_workers)
            super().__init__(max_workers, **options)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    use.pools = pools
    return use
