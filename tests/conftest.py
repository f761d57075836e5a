"""Test-session setup: the report header names the coloring kernel that the
run searches with, "c" (the compiled `_colorcore`) or "python"."""

from kdiameter.coloring import KERNEL_BACKEND


def pytest_report_header(config):
    return f"kdiameter kernel backend: {KERNEL_BACKEND}"
