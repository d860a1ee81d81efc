import pytest

from girthspan.errors import InputError
from girthspan.graphs import Graph
from girthspan.labelcover import LabelCoverInstance
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset


def make_lc(a_count, b_count, sigma_a, sigma_b, edges):
    """edges: list of (a, b, pairs)."""
    return LabelCoverInstance(a_count, b_count, sigma_a, sigma_b, edges)


def xor_odd_4cycle():
    """C4 supergraph, binary alphabets, three equality relations and one
    inequality relation; optimum 3/4, minimum REP-cover 5."""
    eq = [(0, 0), (1, 1)]
    neq = [(0, 1), (1, 0)]
    return make_lc(2, 2, 2, 2, [
        (0, 0, eq), (0, 1, eq), (1, 0, eq), (1, 1, neq)])


def path_lc_tiny():
    """Supergraph a0-b0-a1-b1 (a path, so supergirth is infinite); five
    Min-Rep edges total.  Small enough for exhaustive spanner enumeration."""
    return make_lc(2, 2, 2, 2, [
        (0, 0, [(0, 0), (1, 1)]),
        (1, 0, [(0, 1)]),
        (1, 1, [(0, 0), (1, 0)]),
    ])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def full_subset(si):
    """Every edge of a gadget, as a candidate spanner."""
    return EdgeSubset(si.base, range(si.base.edge_count))


def random_graph(n, edge_prob, stream: Stream):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if stream.random() < edge_prob]
    return Graph(n, edges)


def random_tiny_lc(stream: Stream, a_count, b_count, sigma_a, sigma_b,
                   edge_prob=0.6, pair_prob=0.5):
    """Random instance with at least one superedge and nonempty relations."""
    while True:
        edges = []
        for a in range(a_count):
            for b in range(b_count):
                if stream.random() < edge_prob:
                    pairs = [(x, y) for x in range(sigma_a) for y in range(sigma_b)
                             if stream.random() < pair_prob]
                    if not pairs:
                        pairs = [(stream.randbelow(sigma_a), stream.randbelow(sigma_b))]
                    edges.append((a, b, pairs))
        if edges:
            return make_lc(a_count, b_count, sigma_a, sigma_b, edges)


@pytest.fixture
def xor_lc():
    return xor_odd_4cycle()


@pytest.fixture
def tiny_lc():
    return path_lc_tiny()


# --- mutation corpus for the GRAPH v1 / SUBSET v1 parsers ------------------------

# Spellings the reference parsers (str.splitlines, str.split, int) accepted and
# the token policy rejects on purpose: signs and underscores inside integers,
# the controls \x1c-\x1f that str treats as whitespace or line breaks, and
# non-ASCII characters.
NARROWED = frozenset("+-_\x1c\x1d\x1e\x1f")
MUTANT_CHARS = [chr(c) for c in range(128)] + ["\u00a0", "\u0663", "\u2028", "\x85"]


def narrowed_spelling(text: str) -> bool:
    return any(c in NARROWED or not c.isascii() for c in text)


def text_mutants(text: str, stream: Stream, count: int) -> list:
    """``count`` mutants of ``text``: one character changed, a line dropped or
    duplicated, two lines swapped, a token added, or a header token edited."""
    out = []
    while len(out) < count:
        lines = text.split("\n")
        kind = stream.randbelow(6)
        i, j = stream.randbelow(len(lines)), stream.randbelow(len(lines))
        if kind == 0:
            pos = stream.randbelow(len(text))
            out.append(text[:pos] + MUTANT_CHARS[stream.randbelow(len(MUTANT_CHARS))]
                       + text[pos + 1:])
            continue
        if kind == 1:
            del lines[i]
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3:
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 4:
            lines[i] += f" {stream.randbelow(20)}"
        else:
            head = stream.randbelow(2)
            tokens = lines[head].split(" ")
            t = stream.randbelow(len(tokens))
            tok = tokens[t]
            edits = [str(int(tok) + 1) if tok.isdigit() else tok + "1", tok.lower(),
                     tok + tok[-1:], "", "v2", "x"]
            tokens[t] = edits[stream.randbelow(len(edits))]
            lines[head] = " ".join(tokens)
        out.append("\n".join(lines))
    return out


def parse_outcome(parse, text):
    """The parse result, or None if ``parse`` raised anything."""
    try:
        return parse(text)
    except Exception:   # the reference parsers leak ValueError and OverflowError too
        return None


def check_mutant(parse, reference, text, narrowed=narrowed_spelling) -> str:
    """Assert ``parse`` agrees with ``reference`` on ``text``; returns the case
    seen.  ``parse`` may reject a text the reference accepts only where
    ``narrowed(text)`` holds."""
    expected = parse_outcome(reference, text)
    try:
        got = parse(text)
    except InputError:
        got = None
    if expected is not None and got is None:
        assert narrowed(text), f"rejected a text the reference accepts: {text!r}"
        return "narrowed"
    assert got == expected, f"verdicts differ on {text!r}"
    return "accepted" if got is not None else "rejected"
