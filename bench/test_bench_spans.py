"""Checks on the benchmark itself: the tracer covers every layer metric on
the workloads meant to exercise it, changes no result, and puts every
original function back; the generators are seeded; the script refuses to
run without the library."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
import workloads  # noqa: E402
from cfmoments.ring import QPoly, QRat  # noqa: E402

LAYER_FUNCTIONS = {
    "ring": ["qpoly_mul", "qpoly_add", "qrat_make", "exact_div", "field_div", "render",
             "parse_scalar"],
    "triangle": ["generate", "invert", "mul", "production_of", "hankel_det", "rescale_columns"],
    "cfrac": ["moments_from_sfraction", "moments_from_jfraction", "qd_sfraction_from_moments",
              "s_to_j", "hankel_from_sfraction"],
    "series": ["riordan_matrix", "series_from_rational", "riordan_inverse", "schroder_column"],
    "pipeline": ["compare", "build_N_via_behead", "build_N_via_rescale", "build_M",
                 "verify_example"],
    "cli": ["run", "parse_spec"],
}

_COMPARE = {"pipeline.compare", "pipeline.build_N_via_behead", "pipeline.build_N_via_rescale",
            "pipeline.build_M", "triangle.generate", "triangle.invert", "triangle.mul",
            "triangle.production_of", "triangle.hankel_det", "triangle.rescale_columns",
            "cfrac.moments_from_sfraction", "cfrac.s_to_j", "ring.exact_div"}

# Spans each workload must record at least once, and spans it must never
# record (the "should not move" side of the layer -> workload table).
EXERCISED = {
    "numeric-compare": _COMPARE | {"ring.field_div"},
    "zq-compare": _COMPARE | {"ring.qpoly_mul", "ring.qpoly_add"},
    "qq-field": _COMPARE | {"ring.qrat_make", "ring.field_div", "ring.qpoly_mul",
                            "ring.qpoly_add", "cfrac.qd_sfraction_from_moments"},
    "cli-golden": set(spans.LAYER_NAMES),
}
UNTOUCHED = {
    "numeric-compare": {"ring.qpoly_mul", "ring.qpoly_add", "ring.qrat_make", "ring.render",
                        "ring.parse_scalar", "cli.run", "cfrac.qd_sfraction_from_moments"},
    "zq-compare": {"ring.qrat_make", "ring.render", "ring.parse_scalar", "cli.run",
                   "cfrac.qd_sfraction_from_moments"},
    "qq-field": {"ring.render", "ring.parse_scalar", "cli.run"},
    "cli-golden": set(),
}


def _small_ops(name, seed=7):
    """The cheapest op of each kind in round 0; all of round 0 for the CLI."""
    wl = workloads.build(name, seed, ROOT)
    ops = wl.next_round()
    if name == "cli-golden":
        return ops
    cheapest = {}
    for op in ops:
        key = (type(op), op.ring)
        size = getattr(op, "n", 0)
        if key not in cheapest or size < getattr(cheapest[key], "n", 0):
            cheapest[key] = op
    return list(cheapest.values())


def _bindings():
    """Every name bound in a cfmoments module or on the scalar classes."""
    out = {}
    for mod in spans._binding_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for cls in (QPoly, QRat):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_every_named_layer_metric_is_reported():
    expected = {f"{layer}.{fn}.{what}" for layer, fns in LAYER_FUNCTIONS.items()
                for fn in fns for what in ("calls", "self_s")}
    assert set(spans.Tracer().layer_metrics()) == expected


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_covers_its_layers_and_changes_no_output(name):
    ops = _small_ops(name)
    untraced = []
    for op in ops:
        out = op.run()
        assert op.check(out), op.label
        untraced.append(op.fingerprint(out))
    tracer = spans.Tracer()
    durations = []
    with tracer:
        for i, op in enumerate(ops):
            with tracer.op(i):
                out = op.run()
            durations.append(tracer.spans[-1][3] - tracer.spans[-1][2])
            assert op.fingerprint(out) == untraced[i], op.label
    assert tracer.restored()
    calls = {k: v[0] for k, v in tracer.stats.items()}
    assert {k for k in EXERCISED[name] if calls[k] == 0} == set()
    assert {k for k in UNTOUCHED[name] if calls[k] != 0} == set()
    # self times partition each operation's time between the spans
    for i, total in enumerate(durations):
        assert sum(tracer.op_self[i].values()) == pytest.approx(total, rel=1e-6)


def test_every_binding_site_is_wrapped_and_restored():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            during = _bindings()
            raise ZeroDivisionError
    originals = {id(before[(modname, attr)]) for modname, attr in spans.FUNCTIONS.values()}
    assert not [k for k, v in during.items() if id(v) in originals]
    assert during[("cfmoments.triangle", "exact_div")] is during[("cfmoments.pipeline", "exact_div")]
    assert during[("cfmoments", "matrix_mul")] is during[("cfmoments.pipeline", "mul")]
    assert during[("QPoly", "__mul__")] is during[("QPoly", "__rmul__")]
    assert during[("QPoly", "__add__")] is during[("QPoly", "__radd__")]
    assert during[("QPoly", "__mul__")] is not before[("QPoly", "__mul__")]
    assert isinstance(during[("QRat", "make")], staticmethod)
    assert tracer.restored()
    assert _bindings() == before


def test_generators_are_seeded():
    def inputs(name, seed):
        wl = workloads.build(name, seed, ROOT)
        return [(op.label, getattr(op, "a", None) or op.argv) for _ in range(2)
                for op in wl.next_round()]

    for name in workloads.WORKLOADS:
        assert inputs(name, 3) == inputs(name, 3)
        assert inputs(name, 3) != inputs(name, 4)


@pytest.mark.parametrize("name", ["numeric-compare", "zq-compare", "qq-field"])
def test_compare_workloads_never_repeat_an_input(name):
    wl = workloads.build(name, 11, ROOT)
    keys = [(op.a.terms, op.n) for _ in range(wl.trace_rounds)
            for op in wl.next_round() if op.kind == "compare"]
    assert len(set(keys)) == len(keys)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    res = subprocess.run(cmd + ["--workload", "cli-golden", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
