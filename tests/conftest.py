"""Shared expensive fixtures: the session, tiny lakes and prepared pipelines
(all session-scoped)."""
from __future__ import annotations

import pytest

from repro.datalake.generator import santos_lake, tus_lake
from repro.experiments.common import MethodBundle, Prepared, build_method, prepare
from repro.experiments.session import get_spark


@pytest.fixture(scope="session")
def spark():
    """The jobs' own session (``get_spark``), so tests pin what the jobs run."""
    s = get_spark("repro")
    yield s
    s.stop()


TINY_SANTOS = dict(name="tiny_santos", n_domains=8, tables_per_domain=5,
                   rows_range=(25, 50), n_queries=6, seed=7)


@pytest.fixture(scope="session")
def tiny_santos(spark):
    """SANTOS-style lake small enough for unit tests, large enough to rank."""
    return santos_lake(spark, **TINY_SANTOS)


@pytest.fixture(scope="session")
def tiny_tus(spark):
    return tus_lake(
        spark, name="tiny_tus", n_bases=6, partitions_per_base=15,
        base_rows=400, part_rows_range=(25, 60), n_queries=8, seed=11,
    )


@pytest.fixture(scope="session")
def medium_tus(spark):
    """Large enough for the method-ordering assertions to be stable."""
    return tus_lake(
        spark, name="medium_tus", n_bases=10, partitions_per_base=40,
        base_rows=600, part_rows_range=(20, 60), n_queries=20, seed=11,
    )


@pytest.fixture(scope="session")
def prep_medium_tus(spark, medium_tus) -> Prepared:
    return prepare(spark, medium_tus)


@pytest.fixture(scope="session")
def prep_santos(spark, tiny_santos) -> Prepared:
    return prepare(spark, tiny_santos)


@pytest.fixture(scope="session")
def prep_tus(spark, tiny_tus) -> Prepared:
    return prepare(spark, tiny_tus)


@pytest.fixture(scope="session")
def starmie_santos(prep_santos) -> MethodBundle:
    return build_method(prep_santos, "starmie", op="drop_col", epochs=8)


@pytest.fixture(scope="session")
def starmie_tus(prep_tus) -> MethodBundle:
    return build_method(prep_tus, "starmie", op="drop_col", epochs=10)
