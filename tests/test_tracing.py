"""The bench tracer patches functions by name in ``relwords.cli`` and
``relwords.pipeline`` and reads some of their arguments back. These tests
pin that contract, so renaming or dropping one of those names fails here and
not only in a traced bench run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import relwords.cli
import relwords.pipeline

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

MODULES = {"cli": relwords.cli, "pipeline": relwords.pipeline}

# Span name -> the parameters op_counts reads from that call.
READ_PARAMETERS = {
    "embedding.fit_kpca": {"features"},
    "clustering.dbscan": {"dist", "eps", "min_pts"},
    "report.layout_wordcloud": {"ranked", "top_k"},
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_target_exists(tracing):
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.TARGETS
        if not callable(getattr(MODULES[module], attribute, None))
    ]
    assert missing == []


@pytest.mark.parametrize("span", sorted(READ_PARAMETERS))
def test_captured_functions_take_the_parameters_op_counts_reads(tracing, span):
    targets = [(module, attribute) for module, attribute, name in tracing.TARGETS if name == span]
    assert targets, f"no target traces {span}"
    for module, attribute in targets:
        parameters = inspect.signature(getattr(MODULES[module], attribute)).parameters
        assert READ_PARAMETERS[span] <= parameters.keys()
