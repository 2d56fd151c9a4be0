from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msplab.formats import (
    MAX_COUNT,
    InstanceParseError,
    parse_instance,
    parse_ugraph,
    serialize_instance,
    serialize_ugraph,
)
from msplab.lab import GenShape, gen_msp, gen_ugraph
from msplab.model import validate

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixture_file_matches_programmatic_chain(chain_c):
    text = (FIXTURES / "chain_c.msp").read_text()
    assert parse_instance(text) == chain_c
    assert serialize_instance(chain_c) == text


def test_round_trip_is_canonical(chain_c):
    doc = serialize_instance(chain_c)
    assert serialize_instance(parse_instance(doc)) == doc


def test_scrambled_document_parses_to_same_graph(chain_c):
    scrambled = "\n".join(
        [
            "# chain, deliberately shuffled and oddly numbered",
            "msp 1",
            "edge 7 b D 3",
            "vertex D 3",
            "vertex a 1",
            "eset D 2 90 7",
            "stages 3",
            "edge 90 a b 2",
            "vertex S 0",
            "eset a 2",
            "vertex b 2",
            "edge 2 S a 1",
            "eset b 2 90",
        ]
    )
    assert parse_instance(scrambled) == chain_c
    assert serialize_instance(parse_instance(scrambled)) == serialize_instance(chain_c)


def test_structurally_equal_graphs_share_bytes(chain_c):
    vertices, edges, esets = chain_c.document_data()
    from msplab.model import MultistageGraph

    rebuilt = MultistageGraph(3, reversed(vertices), reversed(edges), esets)
    assert serialize_instance(rebuilt) == serialize_instance(chain_c)


@pytest.mark.parametrize(
    "text,code",
    [
        ("", "E_EMPTY"),
        ("# only comments\n", "E_EMPTY"),
        ("stages 3\n", "E_BAD_HEADER"),
        ("msp 1\nvertex S 0\n", "E_MISSING_STAGES"),
        ("msp 1\nstages 1\nstages 1\n", "E_DUPLICATE_STAGES"),
        ("msp 1\nstages 1\nvertex S 0\nvertex S 1\n", "E_DUPLICATE_VERTEX"),
        ("msp 1\nstages 1\nwat 1\n", "E_SYNTAX"),
        ("msp 1\nstages 1\nvertex S 0\nvertex D 1\neset D 0\n", "E_UNKNOWN_EDGE"),
        ("msp 1\nstages 1\nvertex S 0\nvertex D 1\neset Q\n", "E_UNKNOWN_VERTEX"),
        ("msp 1\nstages 1\nvertex S 0\nvertex D 1\neset D\neset D\n", "E_DUPLICATE_ESET"),
        ("msp 1\nstages 1\nvertex S 0\nvertex D 1\nedge 0 S D 1\nedge 0 S D 1\n", "E_DUPLICATE_EDGE"),
        ("msp 1\nstages x\n", "E_BAD_INT"),
        ("msp 1\nstages \u0663\n", "E_BAD_INT"),
        ("msp 1\nstages \uff13\n", "E_BAD_INT"),
        ("msp 1\nstages +3\n", "E_BAD_INT"),
        ("msp 1\nstages 1_0\n", "E_BAD_INT"),
        ("msp 1\nstages 1\nvertex S 0\nvertex D 1\nedge 0 S Q 1\n", "E_STRUCTURE"),
        ("msp 1\nstages 99999999999\nvertex S 0\n", "E_TOO_LARGE"),
        (f"msp 1\nstages {MAX_COUNT + 1}\n", "E_TOO_LARGE"),
    ],
)
def test_parse_error_codes(text, code):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert err.value.code == code


def test_counts_up_to_the_ceiling_parse():
    g = parse_instance(f"msp 1\nstages {MAX_COUNT}\nvertex S 0\nvertex D {MAX_COUNT}\n")
    assert g.stage_count == MAX_COUNT
    assert parse_ugraph(f"vertices {MAX_COUNT}\n1 {MAX_COUNT}\n").n == MAX_COUNT


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceParseError) as err:
        parse_instance("msp 1\nstages 1\nbroken directive here\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "line,code",
    [
        ("stages 1 2", "E_SYNTAX"),
        ("vertex S", "E_SYNTAX"),
        ("vertex S 0 1", "E_SYNTAX"),
        ("edge 0 S D", "E_SYNTAX"),
        ("eset", "E_SYNTAX"),
        ("vertex S " + "9" * 5000, "E_BAD_INT"),  # more digits than int() converts
    ],
)
def test_malformed_directives_name_their_line(line, code):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(f"msp 1\n# a comment\n{line}\n")
    assert (err.value.code, err.value.line) == (code, 3)


def test_validation_questions_are_not_parse_errors():
    # two stage-0 vertices parse fine; validate reports them
    text = "msp 1\nstages 1\nvertex S 0\nvertex S2 0\nvertex D 1\neset D\n"
    g = parse_instance(text)
    codes = {c for c, _, _ in validate(g).violations}
    assert "MULTI_SOURCE" in codes


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_instances_round_trip(seed):
    shape = GenShape(3, (1, 2, 2, 1), edge_density=0.8, eset_density=0.5, seed=seed)
    g = gen_msp(shape)
    doc = serialize_instance(g)
    assert parse_instance(doc) == g
    assert serialize_instance(parse_instance(doc)) == doc


def test_ugraph_fixture_and_round_trip():
    k3 = parse_ugraph((FIXTURES / "k3.graph").read_text())
    assert k3.n == 3 and len(k3.edges) == 3
    text = serialize_ugraph(k3)
    assert serialize_ugraph(parse_ugraph(text)) == text


def test_ugraph_headerless_and_isolated_vertices():
    bare = parse_ugraph("1 2\n2 3\n")
    assert bare.n == 3
    lonely = gen_ugraph(6, 0.0, 1)
    assert parse_ugraph(serialize_ugraph(lonely)).n == 6


@pytest.mark.parametrize(
    "text,code",
    [
        ("", "E_EMPTY"),
        ("1 2 3\n", "E_SYNTAX"),
        ("vertices 3 4\n", "E_SYNTAX"),
        ("1 1\n", "E_SELF_LOOP"),
        ("0 2\n", "E_BAD_VERTEX"),
        ("a b\n", "E_BAD_INT"),
        ("1 +2\n", "E_BAD_INT"),
        ("vertices \u0663\n", "E_BAD_INT"),
        ("vertices 2\nvertices 2\n1 2\n", "E_DUPLICATE_VERTICES"),
        ("vertices 3\n1 5\n", "E_BAD_VERTEX"),
        ("1 5\nvertices 3\n", "E_BAD_VERTEX"),
        ("vertices -4\n1 2\n", "E_BAD_VERTEX"),
        ("vertices 0\n", "E_BAD_VERTEX"),
        ("vertices 99999999999\n", "E_TOO_LARGE"),
        (f"1 2\n1 {MAX_COUNT + 1}\n", "E_TOO_LARGE"),
    ],
)
def test_ugraph_error_codes(text, code):
    with pytest.raises(InstanceParseError) as err:
        parse_ugraph(text)
    assert err.value.code == code


def test_unserializable_names_rejected():
    from msplab.model import MultistageGraph

    g = MultistageGraph(1, [("S", 0), ("two words", 1)], [], {"two words": []})
    with pytest.raises(ValueError, match="cannot be serialized"):
        serialize_instance(g)


# -- parser fuzzing ----------------------------------------------------------

# integers as a document may spell them: small, at and past the count
# ceiling, huge, signed, non-ASCII digits, and things that are not integers
INT_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from([MAX_COUNT, MAX_COUNT + 1, 10**20]).map(str),
    st.sampled_from(["+1", "-0", "01", "1_0", "\u0663", "\uff12", "1.0", "0x1", "1" * 5000]),
)
NAMES = st.sampled_from(["S", "a", "b", "c", "D", "\u00e9", "msp", "1"])
STRAY = st.sampled_from(["#", "# note", "x", "vertex", "eset", "\u00a0", "\u2028", "\x1c"])
TOKENS = st.one_of(INT_TOKENS, NAMES, STRAY)


@st.composite
def _perturbed(draw, lines):
    """``lines`` shuffled, then a few tokens replaced and lines dropped or
    inserted, joined into one document."""
    lines = [line.split(" ") for line in draw(st.permutations(lines))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["token", "drop", "insert"]))
        if kind == "insert" or at == len(lines):
            lines.insert(at, draw(st.lists(TOKENS, min_size=1, max_size=4)))
        elif kind == "drop":
            del lines[at]
        else:
            line = lines[at]
            line[draw(st.integers(0, len(line) - 1))] = draw(TOKENS)
    return "\n".join(" ".join(line) for line in lines)


@st.composite
def instance_documents(draw):
    stages = draw(st.integers(1, 4))
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    stage_of = dict(zip(names, draw(st.lists(st.integers(0, stages), min_size=len(names), max_size=len(names)))))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), min_size=1, max_size=6))
    ids = draw(st.lists(st.integers(0, 30), min_size=len(pairs), max_size=len(pairs), unique=True))
    body = [f"stages {stages}"] + [f"vertex {name} {k}" for name, k in stage_of.items()]
    body += [f"edge {i} {u} {v} {max(stage_of[v], 1)}" for i, (u, v) in zip(ids, pairs)]
    # bit j of ``picks`` declares an eset for name j, and the following
    # bits choose its members among the edge ids and one unknown id
    picks = draw(st.integers(0, 2 ** (len(names) * (len(ids) + 2)) - 1))
    for name in names:
        members = [i for i in [*ids, 31] if (picks := picks >> 1) & 1]
        if (picks := picks >> 1) & 1:
            body.append(" ".join(["eset", name, *map(str, members)]))
    return "msp 1\n" + draw(_perturbed(body))


@st.composite
def ugraph_documents(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1)), max_size=8))
    header = [f"vertices {n}"] if draw(st.booleans()) else []
    return draw(_perturbed(header + [f"{u} {v + (u == v)}" for u, v in pairs]))


@settings(max_examples=200)
@given(doc=instance_documents())
def test_any_instance_document_parses_canonically_or_is_rejected(doc):
    """Grammar-shaped documents either fail with ``InstanceParseError`` or
    parse to a graph that survives a canonical round trip."""
    try:
        g = parse_instance(doc)
    except InstanceParseError:
        return
    text = serialize_instance(g)
    assert parse_instance(text) == g
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=150)
@given(doc=ugraph_documents())
def test_any_ugraph_document_parses_canonically_or_is_rejected(doc):
    try:
        ug = parse_ugraph(doc)
    except InstanceParseError:
        return
    text = serialize_ugraph(ug)
    assert parse_ugraph(text) == ug
    assert serialize_ugraph(parse_ugraph(text)) == text
