"""Session-scoped Ray fixture — init ONCE per pytest session."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture
def exchange_path(monkeypatch):
    """Every ``aggregates.fits`` site takes its distributed path, however
    small its input: ``bucket_map`` runs its sort exchange, and no broadcast
    or driver finish happens (by default inputs up to
    ``DRIVER_FINAL_BYTES`` stay on the driver)."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", -1)


@pytest.fixture
def force_site(monkeypatch):
    """``force_site(site, choice)`` makes every ``aggregates.fits(site, …)``
    call return ``choice`` — True takes the site's driver or broadcast
    path, False its distributed one — without recording it; the other
    sites measure as usual.  The test fails if a forced site is never
    reached (a misspelt site would force nothing)."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    real = aggregates.fits
    forced: dict[str, bool] = {}
    reached: set[str] = set()

    def fits(site: str, nbytes: float) -> bool:
        if site in forced:
            reached.add(site)
            return forced[site]
        return real(site, nbytes)

    monkeypatch.setattr(aggregates, "fits", fits)

    def force(site: str, choice: bool) -> None:
        forced[site] = choice

    yield force
    assert set(forced) <= reached, f"never reached: {set(forced) - reached}"


@pytest.fixture
def in_process(monkeypatch):
    """Every ``aggregates.run_blocks`` pass runs in-process on the driver,
    as on a cluster of one CPU slot.  The session cluster has four, so a
    pass over several items runs as Ray tasks by default."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    monkeypatch.setattr(aggregates, "cpu_slots", lambda: 1)


@pytest.fixture
def crash_at(monkeypatch):
    """``crash_at(name, when)`` makes the next ``fsio.write_json_atomic`` of
    a file named ``name`` raise ``RuntimeError("injected crash ...")``:
    ``"before"`` the commit, or ``"after"`` the file is in place.  It fires
    once, so a rerun in the same test commits as usual — a killed run and
    its resume."""
    from mannheimsearchjoinsengine_ray.state import fsio

    real = fsio.write_json_atomic

    def arm(name: str, when: str) -> None:
        assert when in ("before", "after"), when
        armed = [True]

        def write_json_atomic(fs, path, obj):
            fire = armed[0] and os.path.basename(path) == name
            if fire:
                armed[0] = False
                if when == "before":
                    raise RuntimeError(f"injected crash before {name}")
            real(fs, path, obj)
            if fire:
                raise RuntimeError(f"injected crash after {name}")

        monkeypatch.setattr(fsio, "write_json_atomic", write_json_atomic)

    return arm
