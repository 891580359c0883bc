"""The benchmark's traced run reads its layer timings from one ``full_report``.

``perfbench/run.py`` times each layer over the traced requests, falling back
on a ``full_report(c, include_direct=True)`` probe of a freshly parsed
contraction; a name that probe never reaches fails the traced run with "no
traced unit reached".  The tracer is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import arcdesign
from arcdesign.reference import load_reference_design

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_direct_report_reaches_every_layer_fallback():
    tracing = _tracing()
    tracer = tracing.Tracer(arcdesign)
    c = load_reference_design("contraction_12x8_k3")  # never validated before
    tracer.install()
    try:
        with tracer.unit("direct"):
            arcdesign.full_report(c, include_direct=True)
    finally:
        tracer.uninstall()
    (unit,) = tracing.summarize(tracer)
    reached = set(unit["names"])
    for name in ("efficiency.full_report", "efficiency.e_con", "efficiency.c_bar_v",
                 "efficiency.c_bar_s", "efficiency.info_matrix_augmented",
                 "spectra.eig_symmetric", "designs.validate_contraction",
                 "augmentor.augment"):
        assert name in reached, name
    assert reached & {"efficiency.e_aug_direct", "efficiency.augmented_cefs"}
    assert not hasattr(arcdesign.designs.validate_contraction, "__wrapped__")  # uninstalled
