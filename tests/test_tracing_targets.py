"""The benchmark's tracer finds the functions it times.

`perfbench/tracing.py` rebinds each of its `TARGETS` by module and name, and
skips one that is gone, so a rename would silently zero that target's
per-layer metrics.  This test loads the tracer read-only and fails instead.
"""
import importlib.util
from pathlib import Path

import mstint.cli  # imports every module a target lives in
from mstint.generators import gen_random
from mstint.graph import serialize_instance

# (module, function) of the targets that bind and time a solver layer
LIVE = {
    ("graph", "parse_instance_full"),
    ("solution", "make_solution"),
    ("mst", "mst"),
    ("mst", "partial_cut"),
    ("eps", "eps_increase"),
    ("cuts", "min_st_cut"),
    ("cuts", "global_min_cut"),
    ("budget", "budget_approximate"),
    ("profit", "best_single_cut"),
    ("profit", "profit_approximate"),
    ("relaxation", "build_cut_sequence"),
    ("relaxation", "certify"),
    ("protection", "protect"),
}

# targets whose metrics read 0: the function is gone, or no solver calls it
RETIRED = {
    ("mst", "profit"): "deleted; every solver prices through one TreePricer",
    ("eps", "contracted_instance"): "the eps sweep cuts each class component directly",
    ("cuts", "enumerate_min_st_cuts"): "protect generates its cuts one at a time",
    ("budget", "budget_approximate_fast"): "deleted; budget --fast runs budget_approximate",
    ("budget", "collect_candidate_cuts"): "the candidate pool of the deleted fast variant",
    ("protection", "list_optimal_cuts"): "protect generates its cuts one at a time",
}


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_live_tracing_targets_bind():
    tracing = load_tracing()
    assert {(m, f) for m, f, _, _ in tracing.TARGETS} == LIVE | RETIRED.keys()
    tracer = tracing.Tracer()
    tracer.bind()  # records the bindings; install() would rebind them
    bound = {
        (original.__module__.removeprefix("mstint."), original.__name__)
        for _, _, original, _ in tracer._bindings
    }
    assert sorted(LIVE - bound) == []


def test_traced_greedy_ops_exit_0(tmp_path, capsys):
    # the min-cut hook reads a fourth positional argument as an edge filter
    # and the result's cost, so a traced budget or profit op fails unless
    # every flow's limit is a keyword and every min_st_cut gives a cut
    path = tmp_path / "g.txt"
    path.write_text(serialize_instance(gen_random(5, 12, 48, 20, 10)))
    tracer = load_tracing().Tracer()
    tracer.bind()
    for argv in (["budget", str(path), "--delta", "10"], ["profit", str(path), "--budget", "4"]):
        tracer.install()
        try:
            tracer.begin_op(argv[0])
            code = mstint.cli.main(argv)
            _, counts = tracer.end_op()
        finally:
            tracer.remove()
        assert code == 0, capsys.readouterr().err
        assert counts["cuts.min_st_cut.calls"] > 0, argv
