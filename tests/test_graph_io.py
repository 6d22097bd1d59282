import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import reference_graph_checks, reference_parse_instance_full
from mstint.generators import gen_random
from mstint.graph import (
    Candidate,
    Edge,
    Graph,
    ParseError,
    parse_instance,
    parse_instance_full,
    serialize_instance,
)
from mstint.quantities import QUANTITY_MAX, SCALE

T3_TEXT = """\
3 3
0 1 1 1
1 2 2 1
0 2 3 1
"""


def test_parse_t3():
    g = parse_instance(T3_TEXT)
    assert g.n_vertices == 3
    assert g.edges == (
        Edge(0, 1, 1_000_000, 1_000_000),
        Edge(1, 2, 2_000_000, 1_000_000),
        Edge(0, 2, 3_000_000, 1_000_000),
    )


def test_parse_p2():
    g = parse_instance("2 1\n0 1 5 3\n")
    assert g.edges == (Edge(0, 1, 5_000_000, 3_000_000),)


def test_parse_inf_cost_and_scaling():
    g = parse_instance("2 1\n0 1 1.5 inf\n")
    assert g.edges[0].weight == 1_500_000
    assert g.edges[0].cost is None


def test_parse_comments_and_blank_lines():
    g = parse_instance("# header\n\n2 1\n# edge\n0 1 1 1\n")
    assert g.n_edges == 1


def test_parse_protect_section():
    text = T3_TEXT + "protect 2\n0 1 1 2 4\n1 2 2 3 4\n"
    g, cands = parse_instance_full(text)
    assert g.n_edges == 3
    assert cands == (
        Candidate(0, 1, 1_000_000, 2_000_000, 4_000_000),
        Candidate(1, 2, 2_000_000, 3_000_000, 4_000_000),
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "2 1\n0 1 1\n",
        "2 1\n0 2 1 1\n",  # endpoint out of range
        "2 1\n0 0 1 1\n",  # self-loop
        "2 1\n0 1 -1 1\n",  # negative weight
        "2 1\n0 1 1 0\n",  # non-positive cost
        "2 1\n0 1 1.1234567 1\n",  # too many fractional digits
        "2 1\n0 1 1 1\nprotect 1\n",  # missing candidate line
        "2 1\n0 1 1 1\nprotect 1\n0 1 1 inf 1\n",  # infinite build cost
        "2 1\n0 1 1 1\ntrailing junk\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_instance_full(text)


def test_graph_invariants_direct():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(2, (Edge(0, 0, 1, 1),))
    with pytest.raises(ValueError):
        Graph(2, (Edge(0, 1, -5, 1),))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=8)) if n > 1 else 0
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 2))
        if v >= u:
            v += 1
        w = draw(st.integers(min_value=0, max_value=10**9))
        c = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)))
        edges.append(Edge(u, v, w, c))
    return Graph(n, tuple(edges))


@given(graphs())
def test_serialize_parse_roundtrip(g):
    assert parse_instance(serialize_instance(g)) == g


@given(graphs())
def test_roundtrip_with_candidates(g):
    if g.n_vertices < 2:
        return
    cands = (Candidate(0, 1, 500_000, 7_000_000, 9_000_000),)
    g2, parsed = parse_instance_full(serialize_instance(g, cands))
    assert g2 == g
    assert parsed == cands


HUGE = "9" * 5000  # past int()'s 4300-digit limit
ODD_TOKENS = (
    "inf", ".5", "1.", "1.1234567", "0.000001", "٣", "²", "+0", "1_0", HUGE,
    "0", "00", "0.0", "-1", "abc", "#", "1e3", "INF", ".", "0001", "1.5",
    "999999999999", "9999999999999", "9223372036854.775807",
    "9223372036854.775808", "3", "7", "12", "",
)
# every separator str.splitlines() breaks at, and whitespace str.split() skips
SEPARATORS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
SPACES = (" ", "  ", "\t", "\x0c", "\xa0", "\u3000")


def outcome(func, *args):
    """func's result, or the class and message of what it raised."""
    try:
        return func(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_instance(rng: random.Random) -> tuple[Graph, tuple[Candidate, ...]]:
    """A small seeded graph with some fractional weights and `inf` costs,
    and sometimes a protect section."""
    n = rng.randint(1, 8)
    m = 0 if n == 1 else rng.randint(n - 1, 2 * n)
    g = gen_random(rng.randrange(10**6), n, m, rng.choice((0, 3, 1000)), 10)
    edges = tuple(
        Edge(
            e.u,
            e.v,
            e.weight + rng.choice((0, 0, 1, 500_000)),
            None if rng.random() < 0.15 else e.cost,
        )
        for e in g.edges
    )
    cands = ()
    if n > 1 and rng.random() < 0.4:
        cands = tuple(
            Candidate(u, (u + 1 + rng.randrange(n - 1)) % n, rng.randrange(4) * 250_000,
                      rng.randint(1, 5) * 10**6, rng.randint(1, 5) * 10**6)
            for u in (rng.randrange(n) for _ in range(rng.randint(0, 3)))
        )
    return Graph(n, edges), cands


def mutate(text: str, rng: random.Random) -> str:
    lines = text.split("\n")[:-1]
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        parts = lines[i].split(" ")
        kind = rng.randrange(9)
        if kind == 0:  # one odd token
            parts[rng.randrange(len(parts))] = rng.choice(("inf", rng.choice(ODD_TOKENS)))
            lines[i] = " ".join(parts)
        elif kind == 1:  # comment or blank line
            lines.insert(i, rng.choice(("# note", "#", "  # 1 2", "", "   ", "\t")))
        elif kind == 2:  # missing line
            del lines[i]
            if not lines:
                lines = [""]
        elif kind == 3:  # surplus line
            lines.insert(i, lines[i])
        elif kind == 4:  # a token fewer or more
            if rng.random() < 0.5:
                del parts[rng.randrange(len(parts))]
            else:
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(("1", "inf", "x")))
            lines[i] = " ".join(parts)
        elif kind == 5:  # odd whitespace, leading and between tokens
            lines[i] = rng.choice(SPACES) + rng.choice(SPACES).join(parts)
        elif kind == 6:  # a count one off, or past int()'s limit
            head = lines[i].split()
            if head and head[-1].isascii() and head[-1].isdigit() and len(head[-1]) < 20:
                count = int(head[-1])
                head[-1] = rng.choice((str(count + 1), str(max(0, count - 1)), HUGE))
                lines[i] = " ".join(head)
        elif kind == 7:  # a protect line
            lines.insert(i, rng.choice(("protect 0", "protect 1", f"protect {HUGE}", "protect")))
        else:  # trailing junk
            lines.append(rng.choice(("junk", "0 1 1 1", "0 1 1 1 1")))
    joiners = [rng.choice(SEPARATORS) for _ in lines]
    if rng.random() < 0.7:  # mostly one separator throughout
        joiners = [joiners[0]] * len(lines)
    return "".join(line + sep for line, sep in zip(lines, joiners))


def test_parser_matches_reference_on_mutated_texts():
    # the same graph and candidates, or the same exception and message
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(20_000):
        g, cands = random_instance(rng)
        text = mutate(serialize_instance(g, cands), rng)
        got = outcome(parse_instance_full, text)
        assert got == outcome(reference_parse_instance_full, text), repr(text[:200])
        seen["ok" if isinstance(got[0], Graph) else re.sub(r"^line \d+: ", "", got[1])[:24]] += 1
    # the fuzz reaches every kind of answer
    for kind in (
        "ok", "bad endpoint", "bad header", "bad quantity literal: ",
        "quantity out of range: '", "more than 6 fractional ", "cost must be positive",
        "unexpected end of input ", "expected `protect k` or ", "bad protect count",
        "protect section expects", "expected `u v weight co", "expected `u v weight bu",
        "candidate costs must be ", "empty instance", "expected `n m` header",
    ):
        assert any(key.startswith(kind) for key in seen), kind


def test_parser_5000_digit_tokens():
    # each place a token may pass int()'s digit limit, against the reference
    texts = [
        f"{HUGE} 1\n0 1 1 1\n",
        f"2 {HUGE}\n0 1 1 1\n",
        f"2 1\n{HUGE} 1 1 1\n",
        f"2 1\n0 {HUGE} 1 1\n",
        f"2 1\n0 1 {HUGE} 1\n",
        f"2 1\n0 1 1 {HUGE}\n",
        f"2 1\n0 1 1 1\nprotect {HUGE}\n",
        f"2 1\n0 1 1 1\nprotect 1\n{HUGE} 1 1 1 1\n",
        f"2 1\n0 1 1 1\nprotect 1\n0 1 {HUGE} 1 1\n",
        f"2 1\n0 1 1 1\nprotect 1\n0 1 1 1 {HUGE}\n",
    ]
    messages = []
    for text in texts:
        got = outcome(parse_instance_full, text)
        assert got == outcome(reference_parse_instance_full, text)
        assert not isinstance(got[0], Graph), text[:40]
        messages.append(got[1])
    assert messages[0] == "line 1: bad header"
    assert messages[2] == "line 2: bad endpoint"
    assert all(len(message) < 120 for message in messages)


def test_parser_round_trips_random_graphs():
    rng = random.Random(600)
    for seed in range(600):
        n = rng.randint(1, 40)
        m = 0 if n == 1 else rng.randint(n - 1, 3 * n)
        g = gen_random(seed, n, m, rng.choice((0, 3, 1000)), 100)
        edges = tuple(
            Edge(e.u, e.v, e.weight + rng.randrange(SCALE), None if rng.random() < 0.1 else e.cost)
            for e in g.edges
        )
        g = Graph(n, edges)
        cands = ()
        if n > 1 and seed % 3 == 0:
            cands = tuple(
                Candidate(e.u, e.v, e.weight, rng.randint(1, 10**8), rng.randint(1, 10**8))
                for e in rng.sample(edges, min(len(edges), 5))
            )
        text = serialize_instance(g, cands)
        assert parse_instance_full(text) == (g, cands), seed
        assert reference_parse_instance_full(text) == (g, cands), seed


def test_graph_checks_match_reference():
    # the six checks of Graph, in order, with the same exception and message
    rng = random.Random(6)
    values = (-1, 0, 1, 7, QUANTITY_MAX, QUANTITY_MAX + 1)
    for _ in range(3000):
        n = rng.randint(0, 4)
        edges = tuple(
            Edge(
                rng.randint(-1, 4),
                rng.randint(-1, 4),
                rng.choice(values),
                rng.choice((None,) + values),
            )
            for _ in range(rng.randint(0, 3))
        )
        built = outcome(Graph, n, edges)
        expected = outcome(reference_graph_checks, n, edges)
        assert (None if isinstance(built, Graph) else built) == expected, (n, edges)
