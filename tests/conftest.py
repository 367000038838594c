import random

import pytest
from hypothesis import strategies as st

from bddseq import bdd
from bddseq.blif import parse_blif

PAIRS6_SRC = """\
.model pairs6
.inputs x0 x1 x2 x3 x4 x5
.outputs f
.names x0 x1 p0
11 1
.names x2 x3 p1
11 1
.names x4 x5 p2
11 1
.names p0 p1 p2 f
1-- 1
-1- 1
--1 1
.end
"""

AND2_SRC = """\
.model and2
.inputs a b
.outputs o
.names a b o
11 1
.end
"""

C17_SRC = """\
.model c17
.inputs G1 G2 G3 G6 G7
.outputs G22 G23
.names G1 G3 G10
11 0
.names G3 G6 G11
11 0
.names G2 G11 G16
11 0
.names G11 G7 G19
11 0
.names G10 G16 G22
11 0
.names G16 G19 G23
11 0
.end
"""

T5_SRC = """\
.model t5
.inputs a b c d e
.outputs f
.names a b p
11 1
.names c d q
11 1
.names p q r
1- 1
-1 1
.names r e f
10 1
.end
"""


@st.composite
def mutated(draw, text):
    """The text after one to four edits: each inserts a few of its own
    characters or one of its tokens, deletes a span, or truncates it."""
    pieces = st.one_of(
        st.text(sorted(set(text) | set("\\#\t")), min_size=1, max_size=6),
        st.sampled_from(text.split()),
    )
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(range(len(text) + 1)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            text = text[:at] + draw(pieces) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)) :]
        else:
            text = text[:at]
    return text


@st.composite
def mutated_lines(draw, text):
    """The text after one to four line edits: each deletes, repeats or moves
    a line, or inserts a line of the text's own tokens."""
    lines = text.splitlines(keepends=True)
    tokens = text.split() + ["="]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["delete", "repeat", "move", "insert"]))
        if edit == "insert" or not lines:
            line = " ".join(draw(st.lists(st.sampled_from(tokens), max_size=4))) + "\n"
            lines.insert(at, line)
            continue
        line = lines.pop(min(at, len(lines) - 1))
        if edit == "repeat":
            lines[at:at] = [line, line]
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(lines)


@st.composite
def mutated_bytes(draw, data):
    """The bytes after one to four edits: each inserts a few bytes, deletes
    a span, overwrites one byte or truncates them."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "overwrite", "truncate"]))
        if edit == "insert":
            data = data[:at] + draw(st.binary(min_size=1, max_size=6)) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 12)) :]
        elif edit == "overwrite":
            data = data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at + 1 :]
        else:
            data = data[:at]
    return data


@pytest.fixture
def pairs6():
    """f = x0*x1 + x2*x3 + x4*x5: three disjoint two-input products."""
    return parse_blif(PAIRS6_SRC)


@pytest.fixture
def and2():
    return parse_blif(AND2_SRC)


@pytest.fixture
def c17():
    """The five-input ISCAS85 benchmark, six NAND gates."""
    return parse_blif(C17_SRC)


@pytest.fixture
def t5():
    """Five-input tree used for decoder and training tests."""
    return parse_blif(T5_SRC)


@pytest.fixture
def rng():
    return random.Random(1234)


def reversed_order(mgr, roots, ga):
    """A label maker for the reversed identity order, counted on a private
    copy moved there by swaps."""
    copy, copy_roots = bdd.transfer(mgr, roots)
    assert copy.shuffle_to(tuple(reversed(range(mgr.n))))
    return copy.current_order(), bdd.node_count(copy, copy_roots)


@pytest.fixture
def reversed_maker(monkeypatch):
    """A fourth label maker as one more table entry, last in the tie order."""
    makers = {**bdd.LABEL_MAKERS, "reversed": reversed_order}
    monkeypatch.setattr(bdd, "LABEL_MAKERS", makers)
    monkeypatch.setattr(bdd, "HEURISTICS", tuple(makers))
