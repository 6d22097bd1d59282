import pytest

from mstint.bench import BenchRow, render_tsv, run_bench

CONFIG = {
    "suites": [
        {"kind": "eps", "seeds": [1, 2], "n": 5, "m": 8, "max_weight": 4, "max_cost": 4},
        {"kind": "budget", "seeds": [1], "n": 5, "m": 7, "max_weight": 4, "max_cost": 4, "delta": "1"},
        {"kind": "certify", "seeds": [1, 2], "n": 6, "m": 9, "max_weight": 4, "max_cost": 4},
        {"kind": "bad_example", "heavy_weight": 100, "removals": 4, "components": 5},
    ]
}


def test_all_suites_pass():
    rows, ok = run_bench(CONFIG)
    assert ok
    assert len(rows) == 2 + 1 + 2 + 1
    assert [r.instance for r in rows] == sorted(r.instance for r in rows)


def test_reproducible():
    rows_a, _ = run_bench(CONFIG)
    rows_b, _ = run_bench(CONFIG)
    strip = lambda r: (r.instance, r.algorithm, r.cost, r.profit, r.bound, r.bound_ok)
    assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_bench({"suites": [{"kind": "nope"}]})


def test_render_tsv():
    row = BenchRow("i", "alg", "1", "2", "3", True, 4, 0.5)
    text = render_tsv([row])
    lines = text.strip().splitlines()
    assert lines[0].split("\t")[0] == "instance"
    assert lines[1].split("\t") == ["i", "alg", "1", "2", "3", "ok", "4", "0.5000"]
    assert "1/1" in lines[2]
