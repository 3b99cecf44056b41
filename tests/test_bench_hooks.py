"""The benchmark's hooks into the program still find what they wrap.

``perfbench/tracer.py`` reports a layer whose entry point is gone as
``null``, and ``perfbench/hostprobe.py`` probes after each
``verify.make_spectrum`` call, so deleting or renaming one of these functions
breaks a traced run's result without failing any other test.  Entry points
with no caller inside the package (``spectra.kernel``, ``image_of_kernel``,
``x_radical``, ``hull``, ``ideals.classify``, ``check_contraction_property``,
``Ideal.__init__``) stay for this reason.
"""

from pathlib import Path

import pytest

import idealspaces

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import tracer
        yield tracer


def test_every_traced_entry_point_resolves(tracer):
    entries = [e for layer in tracer.LAYERS.values() for e in layer]
    entries.append(tracer.CHECK_ENTRY)
    missing = [e for e in entries if tracer._resolve(idealspaces, *e) is None]
    assert not missing


def test_verify_holds_the_names_the_hooks_rebind():
    from idealspaces import spectra, topology, verify

    # hostprobe wraps verify.make_spectrum; the tracer rebinds each name in
    # every module that holds it, so verify must import these by name
    assert verify.make_spectrum is spectra.make_spectrum
    assert verify.generate_topology is topology.generate_topology
