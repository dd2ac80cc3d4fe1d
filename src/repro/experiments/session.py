"""The one SparkSession definition, for the jobs and the tests.

``SPARK_DRIVER_MEM`` (default 12g) sizes the driver JVM at launch; it is
the one setting a deployment overrides. Every other setting is fixed here.
The ML study's join, ``dropDuplicates`` and ``randomSplit`` follow
``spark.sql.shuffle.partitions``; the preprocessed lake's layout does not
(``core.preprocess.LAYOUT_PARTITIONS``).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "12g"))
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
