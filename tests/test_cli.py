import argparse
import io
import json
import os
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mstint
from conftest import max_tree_complement
from mstint import cli, cuts, eps, profit, protection, relaxation
from mstint.cli import main
from mstint.generators import gen_random
from mstint.graph import serialize_instance
from mstint.mst import PartialCutSpec

T3 = "3 3\n0 1 1 1\n1 2 2 1\n0 2 3 1\n"
P2 = "2 1\n0 1 5 3\n"


@pytest.fixture
def t3_file(tmp_path):
    p = tmp_path / "t3.txt"
    p.write_text(T3)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    """Run python -O with the package under test on the path."""
    src = os.path.dirname(os.path.dirname(mstint.__file__))
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )


def test_mst(capsys, t3_file):
    code, out, _ = run(capsys, ["mst", t3_file, "--json"])
    assert code == 0
    assert json.loads(out) == {"weight": "3", "edges": [0, 1]}


def test_eps_increase(capsys, t3_file):
    code, out, _ = run(capsys, ["eps-increase", t3_file, "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["edges"] == [0]
    assert record["cost"] == "1"
    assert record["profit"] == "2"


def test_eps_increase_large_unit_cycle(capsys, tmp_path):
    # every vertex in one class: a recursive flow DFS this deep used to end
    # in RecursionError, and a global min cut with one pass per vertex
    # takes seconds here; the -O run shows no check relies on `assert`
    n = 5000
    path = tmp_path / "cycle.txt"
    path.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n} 1 1\n" for i in range(n)))
    code, out, _ = run(capsys, ["eps-increase", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["cost"] == "2"
    proc = _run_optimized("-m", "mstint.cli", "eps-increase", str(path), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cost"] == "2"


def test_guarantee_error_exits_1(capsys, monkeypatch, t3_file):
    # a class cut that does not cost its contraction value, or whose side
    # does not realize its edges on g, fails a check
    real_min_cut, real_partial_cut = eps.min_cut, eps.partial_cut

    def one_unit_low(n, ends, below=None):
        found = real_min_cut(n, ends, below)
        return found and (found[0] - 1, found[1])

    def every_label(n, ends, below=None):
        found = real_min_cut(n, ends, below)
        return found and (found[0], set(range(n)))

    def one_more_edge(g, side, threshold):
        spec = real_partial_cut(g, side, threshold)
        return PartialCutSpec(spec.side, spec.threshold, spec.edges | {g.n_edges - 1})

    for name, fake in (
        ("min_cut", one_unit_low),
        ("min_cut", every_label),
        ("partial_cut", one_more_edge),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(eps, name, fake)
            code, _, err = run(capsys, ["eps-increase", t3_file])
        assert code == 1, fake.__name__
        assert err.startswith("guarantee violated:")


def test_budget_large_cycle(capsys, tmp_path):
    # 2000- and 5000-vertex cycles: the flow's augmenting paths run around
    # them, which a recursive depth-first search could not follow, and the
    # fallback's global min cut must not take one pass per vertex
    for n in (2000, 5000):
        path = tmp_path / f"cycle{n}.txt"
        path.write_text(
            f"{n} {n}\n"
            + "".join(f"{i} {(i + 1) % n} {2 if i == n - 1 else 1} 1\n" for i in range(n))
        )
        argv = ["budget", str(path), "--delta", "1", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0, n
        assert json.loads(out)["cost"] == "1"
        proc = _run_optimized("-m", "mstint.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cost"] == "1"


def test_min_cut_duality_mismatch_exits_1(capsys, monkeypatch, t3_file):
    # a max-flow one unit short of its residual cut breaks strong duality
    real = cuts.CutNetwork.max_flow
    monkeypatch.setattr(
        cuts.CutNetwork,
        "max_flow",
        lambda net, s, t, *, limit=None: real(net, s, t, limit=limit) - 1,
    )
    code, _, err = run(capsys, ["budget", t3_file, "--delta", "2"])
    assert code == 1
    assert err.startswith("guarantee violated: max-flow")
    # the check is explicit code, so python -O keeps it
    proc = _run_optimized(
        "-c",
        "import sys\n"
        "from mstint import cuts\n"
        "from mstint.cli import main\n"
        "real = cuts.CutNetwork.max_flow\n"
        "cuts.CutNetwork.max_flow = (\n"
        "    lambda net, s, t, *, limit=None: real(net, s, t, limit=limit) - 1\n"
        ")\n"
        f"sys.exit(main(['budget', {t3_file!r}, '--delta', '2']))\n",
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("guarantee violated: max-flow")


def test_certify_broken_certificate_exits_1(capsys, monkeypatch, t3_file):
    # cuts with no perfect matching to the removed tree edges break the
    # relaxation argument; the check is explicit code, so python -O keeps it
    message = "guarantee violated: no perfect matching of cuts to removed tree edges\n"
    monkeypatch.setattr(relaxation, "_matching", lambda adjacent, n_right: None)
    code, _, err = run(capsys, ["certify", t3_file, "--edges", "0"])
    assert code == 1
    assert err == message
    proc = _run_optimized(
        "-c",
        "import sys\n"
        "from mstint import relaxation\n"
        "from mstint.cli import main\n"
        "relaxation._matching = lambda adjacent, n_right: None\n"
        f"sys.exit(main(['certify', {t3_file!r}, '--edges', '0']))\n",
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == message


def test_certify_large_solution(capsys, tmp_path):
    # every edge outside a max-weight spanning tree: T minus F falls into
    # about 600 components, so the run makes about 600 cuts
    g = gen_random(5, 600, 2400, 1000, 10)
    path = tmp_path / "large.txt"
    path.write_text(serialize_instance(g))
    removed = ",".join(map(str, sorted(max_tree_complement(g))))
    argv = ["certify", str(path), "--edges", removed, "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["n_cuts"] > 500
    proc = _run_optimized("-m", "mstint.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == record


def test_certify_5000_vertices(capsys, tmp_path):
    # about 5000 cuts over a 5000-vertex tree: no recursion, no pair scan
    g = gen_random(5, 5000, 20000, 1000, 10)
    path = tmp_path / "huge.txt"
    path.write_text(serialize_instance(g))
    removed = ",".join(map(str, sorted(max_tree_complement(g))))
    code, out, err = run(capsys, ["certify", str(path), "--edges", removed, "--json"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["ok"] is True
    assert record["n_cuts"] > 4500


def test_certify_5000_vertex_unit_path(capsys, tmp_path):
    # T is a path 5000 vertices deep; one heavier edge closes the cycle
    n = 5000
    path = tmp_path / "path.txt"
    path.write_text(
        f"{n} {n}\n" + "".join(f"{i} {i + 1} 1 1\n" for i in range(n - 1)) + f"0 {n - 1} 2 1\n"
    )
    code, out, err = run(capsys, ["certify", str(path), "--edges", str(n // 2), "--json"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["ok"], record["n_cuts"], record["profit"]) == (True, 1, "1")


def test_certify_profit_near_the_quantity_limit(capsys, tmp_path):
    # the profit fits the 64-bit range, but the cut prices sum past it
    path = tmp_path / "near_limit.txt"
    path.write_text(
        "5 8\n"
        "0 1 0.000001 0.000001\n"
        "0 2 0 0.000001\n"
        "0 3 0 0.000001\n"
        "0 4 0 0.000001\n"
        "0 2 3074457345618.258602 0.000001\n"
        "0 4 3074457345618.258602 0.000001\n"
        "2 4 0.000005 0.000001\n"
        "3 1 3074457345618.258602 0.000001\n"
    )
    argv = ["certify", str(path), "--edges", "1,2,3,6", "--json"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["ok"], record["profit"]) == (True, "9223372036854.775806")


def test_stdin_instance(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(P2))
    code, out, _ = run(capsys, ["eps-increase", "-", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["cost"] == "3"
    assert record["profit"] == "inf"


def test_budget_and_fast(capsys, t3_file, tmp_path):
    # --fast is accepted and ignored: one budget algorithm answers both
    path = tmp_path / "random.txt"
    path.write_text(serialize_instance(gen_random(7, 14, 42, 10, 10)))
    records = []
    for instance, delta in ((t3_file, "2"), (str(path), "10")):
        argv = ["budget", instance, "--delta", delta, "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, argv + ["--fast"]) == (0, out, "")
        records.append(json.loads(out))
    assert records[0]["edges"] == [0]
    assert records[0]["profit"] == "2"
    assert len(records[1]["cuts"]) == 4  # a greedy answer, not the fallback


def test_profit(capsys, t3_file):
    code, out, _ = run(capsys, ["profit", t3_file, "--budget", "1", "--json"])
    assert code == 0
    assert json.loads(out)["profit"] == "2"


def test_certify_ok(capsys, t3_file):
    code, out, _ = run(capsys, ["certify", t3_file, "--edges", "0", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["cost_sum"] == "1"


def test_oracles(capsys, t3_file):
    code, out, _ = run(capsys, ["oracle-eps", t3_file, "--json"])
    assert code == 0 and json.loads(out)["cost"] == "1"
    code, out, _ = run(capsys, ["oracle-budget", t3_file, "--delta", "2", "--json"])
    assert code == 0 and json.loads(out)["cost"] == "1"
    code, out, _ = run(capsys, ["oracle-profit", t3_file, "--budget", "2", "--json"])
    assert code == 0 and json.loads(out)["profit"] == "inf"
    code, out, _ = run(
        capsys, ["oracle-profit", t3_file, "--budget", "2", "--finite-only", "--json"]
    )
    assert code == 0 and json.loads(out)["profit"] == "2"


def test_protect(capsys, tmp_path):
    p = tmp_path / "t3p.txt"
    p.write_text(T3 + "protect 2\n0 1 1 2 4\n1 2 2 3 4\n")
    code, out, _ = run(capsys, ["protect", str(p), "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["chosen_candidates"] == [0, 1]
    assert record["eps_cost_before"] == "1"
    assert record["eps_cost_after"] > record["eps_cost_before"]


def test_protect_between_weights_not_coverable(capsys, tmp_path):
    # a candidate between the cut's weight 1 and the next weight 3 leaves the
    # cut at cost 1 when built: it covers nothing, so nothing covers the cut
    p = tmp_path / "between.txt"
    p.write_text("2 2\n0 1 1 1\n0 1 3 10\nprotect 1\n0 1 2 1 10\n")
    code, out, err = run(capsys, ["protect", str(p), "--json"])
    assert (code, out) == (2, "")
    assert "not coverable" in err


def test_protect_large_unit_cycle(capsys, tmp_path):
    # one candidate cannot cover every pair of cycle edges; the closed-set
    # enumeration this replaced recursed once per vertex and died here
    n = 1200
    path = tmp_path / "cycle.txt"
    path.write_text(
        f"{n} {n}\n"
        + "".join(f"{i} {(i + 1) % n} 1 1\n" for i in range(n))
        + "protect 1\n0 1 1 1 1\n"
    )
    code, _, err = run(capsys, ["protect", str(path), "--json"])
    assert code == 2
    assert "not coverable" in err
    proc = _run_optimized("-m", "mstint.cli", "protect", str(path), "--json")
    assert proc.returncode == 2
    assert "not coverable" in proc.stderr and "Traceback" not in proc.stderr


def test_protect_work_count(capsys, monkeypatch, tmp_path):
    # one eps_increase run per generated cut plus the one that shows the
    # rise; the CLI takes both costs from the listing and runs none itself
    calls = []
    real = protection.eps_increase

    def counted(g):
        calls.append(g.n_edges)
        return real(g)

    def forbidden(g):
        raise AssertionError("the CLI ran eps_increase itself")

    monkeypatch.setattr(protection, "eps_increase", counted)
    monkeypatch.setattr(cli, "eps_increase", forbidden)
    n = 40
    unit_path = (
        f"{n} {n - 1}\n"
        + "".join(f"{i} {i + 1} 1 1\n" for i in range(n - 1))
        + f"protect {n - 1}\n"
        + "".join(f"{i} {i + 1} 1 1 1\n" for i in range(n - 1))
    )
    t3_protect = T3 + "protect 2\n0 1 1 2 4\n1 2 2 3 4\n"
    for text, n_cuts in ((t3_protect, 2), (unit_path, n - 1)):
        p = tmp_path / "instance.txt"
        p.write_text(text)
        calls.clear()
        code, out, _ = run(capsys, ["protect", str(p), "--json"])
        assert code == 0
        assert json.loads(out)["n_cuts"] == n_cuts
        assert len(calls) == n_cuts + 1


def test_gen_random_pipes_to_mst(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "random", "--seed", "1", "--n", "5", "--m", "7"])
    assert code == 0
    p = tmp_path / "gen.txt"
    p.write_text(out)
    code, out, _ = run(capsys, ["mst", str(p), "--json"])
    assert code == 0
    assert len(json.loads(out)["edges"]) == 4


def test_gen_bad(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "bad"])
    assert code == 0
    assert out.startswith("# recommended budget: 4.5")
    p = tmp_path / "bad.txt"
    p.write_text(out)
    code, out, _ = run(capsys, ["mst", str(p), "--json"])
    assert json.loads(out)["weight"] == "101"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "random", "--seed", "1_0", "--n", "5", "--m", "6"],
        ["gen", "random", "--seed", "1", "--n", "\u0665", "--m", "6"],
        ["gen", "random", "--seed", "1", "--n", "5", "--m", "+6"],
        ["gen", "random", "--seed", "1", "--n", "5", "--m", "6", "--max-cost", " 9"],
        ["gen", "bad", "--heavy-weight", "-4"],
        ["gen", "bad", "--components", "\u0665"],
    ],
)
def test_gen_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_input_errors(capsys, tmp_path, t3_file):
    assert run(capsys, ["mst", str(tmp_path / "missing.txt")])[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert run(capsys, ["mst", str(bad)])[0] == 2
    assert run(capsys, ["budget", t3_file, "--delta", "-1"])[0] == 2
    # rejected before any edge is drawn, not after allocating 10**11 of them
    assert run(capsys, ["gen", "random", "--seed", "1", "--n", "5", "--m", "100000000000"])[0] == 2
    assert run(capsys, ["budget", t3_file, "--delta", "abc"])[0] == 2
    assert run(capsys, ["certify", t3_file, "--edges", "9"])[0] == 2
    # removal set that disconnects the graph is an input error for certify
    assert run(capsys, ["certify", t3_file, "--edges", "0,1"])[0] == 2


def test_quantity_overflow_is_input_error(capsys, tmp_path):
    # two quantities of 9e12 sum past 2**63 - 1 units: exit 2, not a traceback
    big = "9000000000000"
    instances = {
        "path": f"3 2\n0 1 {big} 1\n1 2 {big} 1\n",
        "unit": f"3 3\n0 1 1 {big}\n1 2 1 {big}\n0 2 1 {big}\n",
        "graded": f"3 3\n0 1 1 {big}\n1 2 2 {big}\n0 2 3 {big}\n",
        # past int()'s 4300-digit limit, which raises a plain ValueError
        "digits": f"2 1\n0 1 {'9' * 5000} 1\n",
    }
    for name, text in instances.items():
        (tmp_path / name).write_text(text)
    for command, name, *flags in (
        ("mst", "path"),
        ("mst", "digits"),
        ("eps-increase", "unit"),
        ("budget", "unit", "--delta", "1"),
    ):
        code, _, err = run(capsys, [command, str(tmp_path / name), *flags])
        assert code == 2, command
        assert err.startswith("error: quantity out of range"), err
        assert len(err.splitlines()) == 1


def test_out_of_range_quantity_echo_is_short(capsys, tmp_path):
    # a 5000-digit literal is echoed as its first characters and its length
    huge = "9" * 5000
    (tmp_path / "weight").write_text(f"2 1\n0 1 {huge} 1\n")
    (tmp_path / "cost").write_text(f"2 1\n0 1 1 {huge}\n")
    (tmp_path / "t3").write_text("3 3\n0 1 1 1\n1 2 2 1\n0 2 3 1\n")
    for argv in (
        ["mst", str(tmp_path / "weight")],
        ["mst", str(tmp_path / "cost")],
        ["profit", str(tmp_path / "t3"), "--budget", huge],
        ["budget", str(tmp_path / "t3"), "--delta", huge],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv[:2]
        assert err.startswith("error: quantity out of range"), err[:80]
        assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) < 120, err[:80]
        assert "(5000 characters)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "T3", "--edges", "x" * 3000],
        ["certify", "T3", "--edges", "9" * 3000],  # in int()'s limit, out of range
        ["certify", "T3", "--edges", "0," + "9" * 5000],  # past int()'s limit
        ["gen", "random", "--seed", "x" * 3000, "--n", "5", "--m", "7"],
        ["gen", "random", "--seed", "9" * 5000, "--n", "5", "--m", "7"],
        ["gen", "bad", "--components", "x" * 3000],
    ],
)
def test_long_tokens_are_echoed_short(capsys, t3_file, argv):
    argv = [t3_file if a == "T3" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err and all(len(line) < 120 for line in err.splitlines()), err[:200]
    assert "characters)" in err


def test_range_checks_answers_not_internal_sums(capsys, tmp_path):
    # capacities and candidate cut costs may pass 2**63 - 1 units; only an
    # answer must fit, so the solvers answer where the oracles do
    top = "9223372036854.775807"  # 2**63 - 1 units
    big = "9000000000000"
    c = f"3 3\n0 1 1 {top}\n1 2 1 {top}\n0 2 2 1\n"
    instances = {
        "c": c,
        "d": c.replace("3 3", "3 4", 1) + "0 2 3 1\n",
        "graded": f"3 3\n0 1 1 {big}\n1 2 2 {big}\n0 2 3 {big}\n",
    }
    for name, text in instances.items():
        (tmp_path / name).write_text(text)
    for command, oracle, name, *flags in (
        ("eps-increase", "oracle-eps", "c"),
        ("budget", "oracle-budget", "c", "--delta", "1"),
        ("profit", "oracle-profit", "c", "--budget", top),
        ("eps-increase", "oracle-eps", "d"),
        ("profit", "oracle-profit", "d", "--budget", top),
        ("profit", "oracle-profit", "graded", "--budget", "1"),
    ):
        path = str(tmp_path / name)
        code, out, err = run(capsys, [command, path, *flags, "--json"])
        assert code == 0, (command, name, err)
        code, expected, _ = run(capsys, [oracle, path, *flags, "--json"])
        assert code == 0
        answer, truth = json.loads(out), json.loads(expected)
        for key in ("edges", "cost", "profit"):
            assert answer[key] == truth[key], (command, name, key)
    # the greedy's own answer on d costs past the range, and so does the
    # oracle's cheapest set on c for a profit of 2
    for argv in (
        ["budget", str(tmp_path / "d"), "--delta", "1"],
        ["oracle-budget", str(tmp_path / "c"), "--delta", "2"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error: quantity out of range"), err


def test_error_contract_on_tiny_instances(capsys, tmp_path):
    # every command on every degenerate instance answers or reports bad
    # input: exit 0 or 2, at most one stderr line, never a traceback
    instances = {
        "n1": "1 0\n",
        "n2": "2 1\n0 1 1 1\n",
        "n2_inf": "2 1\n0 1 1 inf\n",
        "unit_triangle": "3 3\n0 1 1 1\n1 2 1 1\n0 2 1 1\n",
        "inf_triangle": "3 3\n0 1 1 inf\n1 2 1 inf\n0 2 1 inf\n",
    }
    commands = (
        ["mst"],
        ["eps-increase"],
        ["budget", "--delta", "1"],
        ["profit", "--budget", "1"],
        ["certify", "--edges", "0"],
        ["certify", "--edges", ","],
        ["oracle-eps"],
        ["oracle-budget", "--delta", "1"],
        ["oracle-profit", "--budget", "1"],
    )
    for name, text in instances.items():
        path = tmp_path / name
        path.write_text(text)
        for command, *flags in commands:
            code, _, err = run(capsys, [command, str(path), *flags])
            assert code in (0, 2), (name, command, err)
            assert len(err.splitlines()) <= 1, (name, command, err)
            assert "Traceback" not in err


QUANTITIES = ("0", "1", "2", "3", "0.5", "10", "1000000")
JUNK = ("-1", "x", "1.2345678", "9999999999999", "inf", "", "\u00b2", "1e3")


@st.composite
def instance_texts(draw):
    """A small instance, often with a protect section, and in half the
    cases mutated: tokens replaced by junk, lines cut short or dropped, or
    the whole text cut short."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 9)) if n > 1 else 0
    quantity = st.sampled_from(QUANTITIES)
    cost = st.sampled_from(QUANTITIES[1:])

    def ends():
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return [str(u), str(v)]

    lines = [[str(n), str(m)]]
    for _ in range(m):
        lines.append([*ends(), draw(quantity), draw(st.one_of(cost, st.just("inf")))])
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, 3))
        lines.append(["protect", str(k)])
        for _ in range(k):
            lines.append([*ends(), draw(quantity), draw(cost), draw(cost)])
    text = None
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            row = draw(st.integers(0, len(lines) - 1))
            mutation = draw(st.sampled_from(("junk", "truncate", "drop", "cut text")))
            if mutation == "cut text":
                text = "\n".join(" ".join(row) for row in lines) + "\n"
                text = text[: draw(st.integers(0, len(text) - 1))]
                break
            if not lines[row]:
                continue
            if mutation == "junk":
                col = draw(st.integers(0, len(lines[row]) - 1))
                lines[row][col] = draw(st.sampled_from(JUNK))
            elif mutation == "truncate":
                lines[row] = lines[row][: draw(st.integers(0, len(lines[row]) - 1))]
            elif len(lines) > 1:
                del lines[row]
    if text is None:
        text = "\n".join(" ".join(row) for row in lines) + "\n"
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=instance_texts(),
    amount=st.sampled_from(QUANTITIES + ("x",)),
    edges=st.lists(st.integers(-1, 10).map(str), max_size=5).map(",".join),
)
def test_error_contract_on_fuzzed_instances(tmp_path_factory, text, amount, edges):
    # every instance command on any text answers, reports a guarantee
    # violation or reports bad input, with at most one stderr line
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text)
    for command, *flags in (
        ["mst"],
        ["eps-increase"],
        ["budget", f"--delta={amount}"],
        ["budget", "--fast", f"--delta={amount}"],
        ["profit", f"--budget={amount}"],
        ["protect"],
        ["certify", f"--edges={edges}"],
        ["oracle-eps"],
        ["oracle-budget", f"--delta={amount}"],
        ["oracle-profit", f"--budget={amount}"],
        ["oracle-profit", "--finite-only", f"--budget={amount}"],
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, str(path), *flags, "--json"])
        assert code in (0, 1, 2), (command, flags, text, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (command, flags, text, err.getvalue())


def test_vertex_count_is_capped(capsys, tmp_path):
    # a header may not ask for more vertices than a run can hold: each
    # solver allocates per vertex, and an unbounded n exhausted memory
    for n, expected in ((10**6, 0), (10**6 + 1, 2), (9999999999999, 2)):
        path = tmp_path / f"n{n}.txt"
        path.write_text(f"{n} 0\n")
        code, _, err = run(capsys, ["mst", str(path)])
        assert code == expected, err
        if expected:
            assert err == "error: line 1: more than 10**6 vertices\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "random", "--seed", "1", "--n", "1000001", "--m", "1000000"],
        ["gen", "bad", "--components", "999997", "--heavy-weight", "999998"],
    ],
)
def test_gen_keeps_to_the_vertex_cap(capsys, argv):
    # gen writes nothing the parser would reject: n = 10**6 + 1 both times
    assert run(capsys, argv) == (2, "", "error: more than 10**6 vertices\n")


def test_degenerate_input_messages(capsys, tmp_path):
    inf_triangle = tmp_path / "inf_triangle"
    inf_triangle.write_text("3 3\n0 1 1 inf\n1 2 1 inf\n0 2 1 inf\n")
    single = tmp_path / "n1"
    single.write_text("1 0\n")
    # two components and a protect candidate that would bridge them
    split = tmp_path / "split"
    split.write_text("4 2\n0 1 1 1\n2 3 1 1\nprotect 1\n1 2 5 1 1\n")
    no_candidates = tmp_path / "protect0"
    no_candidates.write_text(T3 + "protect 0\n")
    for argv, message in (
        (["certify", str(inf_triangle), "--edges", "0"], "edge 0 has infinite removal cost"),
        # two removed edges disconnect the triangle, which is reported first
        (["certify", str(inf_triangle), "--edges", "1,2"], "removal set disconnects the graph"),
        (["budget", str(single), "--delta", "1"], "target increase is unreachable at finite cost"),
        (["eps-increase", str(split)], "graph is disconnected"),
        (["budget", str(split), "--delta", "1"], "graph is disconnected"),
        (["profit", str(split), "--budget", "1"], "graph is disconnected"),
        (["certify", str(split), "--edges", ""], "graph is disconnected"),
        (["protect", str(split)], "graph is disconnected"),
        # an empty protect section, and none at all, leave nothing to build
        (["protect", str(no_candidates)], "instance has no protect candidates"),
        (["protect", str(single)], "instance has no protect candidates"),
        # no vertex at all, reported before the edge count
        (
            ["gen", "random", "--seed", "1", "--n", "0", "--m", "0"],
            "graph needs at least one vertex",
        ),
    ):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_certify_error_order(capsys, tmp_path):
    # removing edges 0 and 2 leaves two components joined only by weight
    # 9e12 edges, whose MST total leaves the 64-bit range: the overflow of
    # p(F) is reported before edge 0's infinite removal cost
    path = tmp_path / "wide"
    path.write_text(
        "4 5\n0 1 0 inf\n1 2 0 1\n2 3 0 1\n0 2 9000000000000 1\n0 3 9000000000000 1\n"
    )
    argv = ["certify", str(path), "--json", "--edges"]
    assert run(capsys, argv + ["0,2"]) == (
        2,
        "",
        "error: quantity out of range: 18000000000000000000\n",
    )
    code, out, _ = run(capsys, argv + ["2"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["profit"] == "9000000000000"


def test_undecodable_or_non_decimal_input_exits_2(capsys, tmp_path, t3_file):
    # UnicodeDecodeError and int("²") are ValueErrors, not input errors, so
    # each must be turned into one before it reaches cli.main
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"2 1\n0 1 \xff 1\n")
    superscript = tmp_path / "superscript.txt"
    superscript.write_text("2 1\n0 1 \u00b2 1\n")
    # int() reads '1_0' as 10, '+0' as 0 and the Arabic-Indic '\u0663' as 3
    underscore = tmp_path / "underscore.txt"
    underscore.write_text("1_0 0\n")
    plus = tmp_path / "plus.txt"
    plus.write_text("2 1\n+0 1 1 1\n")
    arabic = tmp_path / "arabic.txt"
    arabic.write_text("2 1\n0 1 \u0663 1\n", encoding="utf-8")
    for argv in (
        ["mst", str(undecodable)],
        ["mst", str(superscript)],
        ["profit", t3_file, "--budget", "\u00b2"],
        ["mst", str(underscore)],
        ["mst", str(plus)],
        ["mst", str(arabic)],
        ["profit", t3_file, "--budget", "\u0661"],
        ["certify", t3_file, "--edges", "0_0"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_input_errors_share_one_base():
    # library callers catch mstint.InputError and mstint.GuaranteeError
    from mstint.protection import CandidateInvariantError
    from mstint.quantities import QuantityOverflowError, QuantityParseError

    for cls in (
        mstint.ParseError,
        QuantityParseError,
        QuantityOverflowError,
        mstint.DisconnectedGraphError,
        mstint.NoFiniteCutError,
        mstint.InfeasibleError,
        mstint.InfeasibleOracleError,
        mstint.OracleSizeError,
        mstint.UncoverableCutError,
        CandidateInvariantError,
    ):
        assert issubclass(cls, mstint.InputError), cls
    assert issubclass(QuantityOverflowError, OverflowError)
    assert not issubclass(mstint.GuaranteeError, mstint.InputError)


def test_exported_names_are_not_modules():
    # a submodule import rebinds a package name of the same spelling, so
    # an exported name that a submodule shares would export the module
    exported = {name: getattr(mstint, name) for name in mstint.__all__}
    assert [name for name, value in exported.items() if isinstance(value, types.ModuleType)] == []


def test_internal_fault_exits_3(capsys, monkeypatch, t3_file):
    # the solver is looked up when the command runs, so the rebound one fails
    def broken(g, delta):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "budget_approximate", broken)
    code, out, err = run(capsys, ["budget", t3_file, "--delta", "1"])
    assert (code, out) == (3, "")
    assert err == "internal error: KeyError: 'lost'\n"


def test_optimized_profit_certify_protect(capsys, tmp_path, t3_file):
    # the same answers under python -O: no check of these paths is an assert
    protect_file = tmp_path / "t3p.txt"
    protect_file.write_text(T3 + "protect 2\n0 1 1 2 4\n1 2 2 3 4\n")
    for argv in (
        ["eps-increase", t3_file, "--json"],
        ["budget", t3_file, "--delta", "2", "--json"],
        ["profit", t3_file, "--budget", "1", "--json"],
        ["certify", t3_file, "--edges", "0", "--json"],
        ["protect", str(protect_file), "--json"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        proc = _run_optimized("-m", "mstint.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_profit_large_unit_path(capsys, tmp_path):
    n = 2000
    path = tmp_path / "path.txt"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1} 1 1\n" for i in range(n - 1)))
    code, out, _ = run(capsys, ["profit", str(path), "--budget", "1", "--json"])
    assert code == 0
    record = json.loads(out)
    # any one edge of the path is a global min cut within budget
    assert (Fraction(record["cost"]), record["profit"]) == (1, "inf")
    assert len(record["edges"]) == 1


def test_profit_takes_an_affordable_complete_cut(capsys, tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text("2 1\n0 1 1 1\n")
    for command in ("profit", "oracle-profit"):
        code, out, _ = run(capsys, [command, str(path), "--budget", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {"cost": "1", "cuts": [], "edges": [0], "profit": "inf"}


def test_profit_unit_cycle_builds_one_network(capsys, monkeypatch, tmp_path):
    # one threshold, so the best single cut cuts every edge's pair on one
    # flow network; the greedy's only round hits those cuts and builds none
    builds = []
    real_init = cuts.CutNetwork.__init__

    def counted(net, g, participating):
        real_init(net, g, participating)
        builds.append(net.n_edges)

    in_single = []
    real_single = profit.best_single_cut

    def single(*args):
        before = len(builds)
        result = real_single(*args)
        in_single.append(len(builds) - before)
        return result

    monkeypatch.setattr(cuts.CutNetwork, "__init__", counted)
    monkeypatch.setattr(profit, "best_single_cut", single)
    n = 400
    path = tmp_path / "cycle.txt"
    path.write_text(
        f"{n} {n}\n"
        + "".join(f"{i} {(i + 1) % n} {2 if i == n - 1 else 1} 1\n" for i in range(n))
    )
    code, out, _ = run(capsys, ["profit", str(path), "--budget", "1", "--json"])
    assert code == 0
    record = json.loads(out)
    assert (record["cost"], record["profit"]) == ("1", "1")
    assert in_single == [1]
    assert builds == [n - 1]


def test_protect_2000_vertex_unit_cycle(capsys, tmp_path):
    n = 2000
    path = tmp_path / "cycle.txt"
    path.write_text(
        f"{n} {n}\n"
        + "".join(f"{i} {(i + 1) % n} 1 1\n" for i in range(n))
        + "protect 1\n0 1 1 1 1\n"
    )
    code, out, err = run(capsys, ["protect", str(path), "--json"])
    assert (code, out) == (2, "")
    assert "not coverable" in err and len(err.splitlines()) == 1
    # the cut is named by its edges and its side's size, not every vertex
    assert len(err) < 200, err


def test_protect_5000_vertex_path(capsys, tmp_path):
    # a unit path closed by a weight-2 edge, cost 10 but on one edge of cost
    # 1, and a mirror of each path edge: only the cost-1 edge's mirror is built
    n, cheap = 5000, 2500
    costs = [1 if i == cheap else 10 for i in range(n - 1)]
    path = tmp_path / "path.txt"
    path.write_text(
        f"{n} {n}\n"
        + "".join(f"{i} {i + 1} 1 {costs[i]}\n" for i in range(n - 1))
        + f"{n - 1} 0 2 10\n"
        + f"protect {n - 1}\n"
        + "".join(f"{i} {i + 1} 1 1 10\n" for i in range(n - 1))
    )
    code, out, err = run(capsys, ["protect", str(path), "--json"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["chosen_candidates"] == [cheap]
    assert (record["eps_cost_before"], record["eps_cost_after"]) == ("1", "10")
    assert record["n_cuts"] == 1


def test_parser_built_once_and_solvers_looked_up_per_call(capsys, monkeypatch, t3_file):
    builds = []
    real_init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        real_init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    first = run(capsys, ["eps-increase", t3_file, "--json"])
    assert first[0] == 0 and builds.count("mstint") == 1
    calls = []
    real = cli.eps_increase

    def solver(g):
        calls.append(g.n_vertices)
        return real(g)

    monkeypatch.setattr(cli, "eps_increase", solver)
    assert run(capsys, ["eps-increase", t3_file, "--json"]) == first
    assert builds.count("mstint") == 1
    assert calls == [3]


def test_all_names_resolve():
    for name in mstint.__all__:
        assert getattr(mstint, name) is not None, name


def test_human_output_default(capsys, t3_file):
    code, out, _ = run(capsys, ["eps-increase", t3_file])
    assert code == 0
    assert "edges: 0" in out
    assert "cost: 1" in out
