"""Session-scoped Ray fixture — init ONCE per pytest session."""

from __future__ import annotations

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
    """Every ``bucket_map`` runs its sort exchange, however small its input
    (by default inputs up to ``DRIVER_FINAL_BYTES`` finish on the driver)."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", -1)
