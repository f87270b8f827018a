"""The benchmark's traced mode wraps femasm attributes by name
(``perfbench/spans.py``); a rename in ``src/`` would break it silently."""

import importlib.util
from pathlib import Path

import pytest

import femasm
import femasm.cli  # spans.py wraps attributes of the CLI module too
from femasm import ElasticParams, MatrixKind, Strategy, generate_unit_square_mesh

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install(femasm)
    saved = list(tracer._saved)
    try:
        yield tracer, saved
    finally:
        tracer.uninstall()


def test_install_wraps_and_uninstall_restores(tracer):
    tracer, saved = tracer
    assert saved
    for owner, attr, original in saved:
        assert getattr(owner, attr).__wrapped__ is original
    tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original


def test_loops_and_kernels_are_traced(tracer):
    tracer, _ = tracer
    mesh = generate_unit_square_mesh(2)
    params = ElasticParams(1.0, 1.0)
    femasm.assemble(mesh, MatrixKind.STIFFNESS, Strategy.OPTV1)
    femasm.assemble(mesh, MatrixKind.ELASTIC, Strategy.OPTV2, params=params)
    metrics = tracer.layer_metrics()
    # one element-kernel call per triangle of the loop
    assert metrics["elements.calls"] == mesh.nme
    names = [span[0] for span in tracer.spans]
    gradients = names.index("assembly.batch_gradients")
    parent = tracer.spans[tracer.spans[gradients][3]][0]
    assert parent == "assembly.batch_kg_elastic"
