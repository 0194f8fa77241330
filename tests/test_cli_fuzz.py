"""Random JSON in every file argument of every verb.

Whatever the documents hold, the CLI exits 0, 1 or 2, writes at most one
line to stderr, and never ends in a traceback (an exception out of
``main``).  Each example fuzzes one file argument of a verb and gives the
others their valid base documents, so the fuzzed one is read in full: it
gets its base document with one node, possibly the root, replaced by a
random shape.  A second test runs every verb with each of its flags left
out in turn, under the same conditions.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wbcorr.cli import main

from conftest import PAIR_MODEL_B

KEYS = [
    "kind", "components", "genus", "class", "absolute", "relative", "s_markings",
    "sector", "contact", "j", "ell", "insertion", "psi", "r", "beta", "alpha",
    "c", "i", "d", "lambdas", "model", "s_sectors", "z_sectors", "k_classes",
    "lattice", "rank", "F", "FZ", "Z_pairing", "kappa_push", "name", "bar", "pi",
    "phase", "local_model", "basis", "deg",
]

# ints stay small: a large descendent power makes the generalized
# factorials, and so the run time, grow without bound
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-3, 40)
    | st.sampled_from(["0", "1", "1/2", "-1", "x", "relative", "absolute", "sa", "sb", "t1"])
    | st.text(max_size=3)
)


def _nest(inner):
    keys = st.sampled_from(KEYS) | st.text(max_size=2)
    return scalars | st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4)


# JSON values nested at most 3 deep
shapes = _nest(_nest(_nest(scalars)))


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(shapes)
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(shapes)
    return doc


RD_DOC = {
    "kind": "relative",
    "components": [
        {
            "genus": 0,
            "class": ["1", "1/2"],
            "absolute": [{"sector": "amb", "insertion": "one_X", "psi": 0}],
            "relative": [{"sector": "sa", "contact": "1/2", "j": 1, "ell": 0}],
        }
    ],
}
AD_DOC = {
    "kind": "absolute",
    "components": [
        {
            "genus": 0,
            "class": ["1"],
            "absolute": [{"sector": "amb", "insertion": "one_X", "psi": 0}],
            "s_markings": [{"sector": "t1", "j": 1, "psi": 0}],
        }
    ],
}
BASE = {"genus": 0, "class": ["1", "0"], "absolute": [], "relative": []}
EXTRA = {
    "genus": 0,
    "class": ["0", "1"],
    "absolute": [],
    "relative": [{"sector": "sb", "contact": "1", "j": 1, "ell": 0}],
}
CHAIN = [
    {"kind": "relative", "components": [BASE, EXTRA]},
    {"kind": "relative", "components": [BASE]},
    RD_DOC,
]
MODEL = {"r": 2, "beta": [1, 2], "alpha": [1, 1]}
QUERIES = [
    {"c": 0, "i": 1, "j": 1},
    {"c": 3, "i": 1, "j": 1, "d": 0},
    {"lambdas": ["1", "2", "3"], "d": 2},
    {"model": {"r": 1, "beta": [1], "alpha": [1]}, "c": 0, "i": 1, "j": 1},
]

# verb, or verb-variant -> (fixed arguments, [(file flag, base document)])
VERBS = {
    "sectors": ([], [("--model", MODEL)]),
    "degshift": (["--R", "1/2"], [("--model", MODEL)]),
    "rank": (["--c", "3"], [("--model", MODEL)]),
    "dims": (["--k", "1"], [("--model", MODEL)]),
    "invariant": ([], [("--model", MODEL), ("--data", QUERIES)]),
    "invariant-single": (["--c", "0", "--i", "1", "--j", "1"], [("--model", MODEL)]),
    "correspond": ([], [("--pair-model", PAIR_MODEL_B), ("--data", RD_DOC)]),
    # the inverse direction of correspond reads an absolute datum
    "correspond-inverse": ([], [("--pair-model", PAIR_MODEL_B), ("--data", AD_DOC)]),
    "order": ([], [("--pair-model", PAIR_MODEL_B), ("--data", CHAIN)]),
    "assemble": (
        [],
        [("--pair-model", PAIR_MODEL_B), ("--data", CHAIN), ("--offdiag", [[0, 1, "5/7"]])],
    ),
    "solve": ([], [("--matrix", [["2", "0"], ["3", "5"]]), ("--vector", ["4", "1"])]),
}


def _assert_clean_exit(name, fixed, files):
    """Run verb ``name`` with ``fixed`` and ``(flag, document)`` files; check it exits cleanly."""
    argv = [name.split("-")[0], *fixed]
    with tempfile.TemporaryDirectory() as tmp:
        for flag, doc in files:
            path = Path(tmp) / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2)
    assert message == "" or (message.count("\n") == 1 and message.endswith("\n")), message
    assert "Traceback" not in message


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_json_never_ends_in_a_traceback(data):
    name = data.draw(st.sampled_from(sorted(VERBS)), label="verb")
    fixed, files = VERBS[name]
    fuzzed = data.draw(st.sampled_from([flag for flag, _ in files]), label="fuzzed")
    files = [(f, data.draw(_mutated(doc), label=f) if f == fuzzed else doc) for f, doc in files]
    _assert_clean_exit(name, fixed, files)


# every flag of every verb, given as a fixed argument or a file
DROPS = [
    (name, flag)
    for name, (fixed, files) in sorted(VERBS.items())
    for flag in fixed[::2] + [flag for flag, _ in files]
]


@pytest.mark.parametrize("name, dropped", DROPS, ids=[f"{n}-without{f}" for n, f in DROPS])
def test_dropping_any_flag_never_ends_in_a_traceback(name, dropped):
    fixed, files = VERBS[name]
    kept = [arg for pair in zip(fixed[::2], fixed[1::2]) if pair[0] != dropped for arg in pair]
    _assert_clean_exit(name, kept, [(flag, doc) for flag, doc in files if flag != dropped])
