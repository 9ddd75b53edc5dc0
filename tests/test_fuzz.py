"""A seeded mutation fuzz of instance and chain files under the CLI.

The JSON trees of three instance files (T1 exact, random seed 7 as
floats, torus N=1) are mutated one or two edits at a time: a node
replaced by one of ``VALUES``, a node deleted, a list item duplicated, or
a number multiplied by 10^300.  ``verify --max-arity 2`` must answer
every mutated file with exit code 0, 1 or 2, with no exception out of
``cli.main`` and no warning (the test configuration makes a warning an
error, so it escapes as an exception too).  Chain files of T1 exact and
random seed 7 as floats are mutated the same way, and ``trace`` must
answer each, with and without ``--cyclic 1``, by the same rule.

``gen`` argv lists are mutated flag by flag: a flag's value replaced by
one of ``VALUES`` or of ``RATIONALS``, a flag dropped, or a flag
duplicated.  ``gen`` must answer each by the same rule, an argparse exit
counting as its code.  ``--out`` stays in the test's directory, and the
``--dims`` of a random instance stay as given: its closure's cost grows
fast with the dimensions, so a mutated size measures that cost, not the
answer.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from homotrace import cli
from homotrace.scalars import EXACT
from homotrace.serialize import chains_to_dict, instance_to_dict, \
    save_instance
from oracles import instance

SEED = 37
FILES_PER_BASE = 200
CHAIN_FILES_PER_BASE = 80
GEN_ARGV_PER_BASE = 120

# the replacement values: empty, boolean, numeric and textual values at
# the edges of each decoder, malformed containers and names of the files
VALUES = [
    None, True, False, 0, 1, -1, 2 ** 70, -2 ** 70, 0.5, -0.0, 1e308,
    -1e308, 5e-324, "1/0", "nan", "inf", "1/3", "", "e1", "P(0,0)", [], {},
    [1e308, 1e308], [0, 0], [[]], {"re": "1", "im": "0"}, {"re": "nan"},
    "homotrace-instance/1",
]


def _nodes(tree, path=()):
    """(path, node) of every node below the root, in document order."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _edit(tree, rng: random.Random) -> None:
    """One random edit of ``tree``, in place."""
    path, node = rng.choice(list(_nodes(tree)))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.randrange(4)
    if kind == 0:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif kind == 1:
        del parent[key]
    elif kind == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif (kind == 3 and isinstance(node, (int, float))
          and not isinstance(node, bool)):
        parent[key] = node * 10 ** 300
    else:
        parent[key] = copy.deepcopy(rng.choice(VALUES))


def mutants(base: dict, rng: random.Random, count: int):
    """``count`` JSON texts of ``base`` with one or two edits each; a
    mutant that cannot be written as JSON is drawn again."""
    made = 0
    while made < count:
        tree = copy.deepcopy(base)
        for _ in range(rng.randint(1, 2)):
            if not list(_nodes(tree)):
                break
            _edit(tree, rng)
        try:
            text = json.dumps(tree)
        except (TypeError, ValueError):
            continue
        made += 1
        yield text


@pytest.fixture(scope="module")
def bases():
    return {name: instance_to_dict(instance(name))
            for name in ("T1", "r7f", "torus1")}


def test_verify_answers_every_mutated_instance(bases, tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for label, base in bases.items():
        for k, text in enumerate(mutants(base, rng, FILES_PER_BASE)):
            path = tmp_path / f"{label}-{k}.json"
            path.write_text(text, encoding="utf-8")
            code = cli.main(["verify", "--instance", str(path),
                             "--max-arity", "2"])
            capsys.readouterr()
            assert code in (0, 1, 2), (label, text)
            codes.append(code)
    assert len(codes) == 3 * FILES_PER_BASE
    assert {0, 2} <= set(codes)


def _chains(inst, rng: random.Random) -> dict:
    """Two chains, each of one term of every length 1-3 over random basis
    operators and a term on the element ``Id``, with small integer
    coefficients."""
    alg = inst.bundle.algebra
    names = [alg.basis_name(k) for k in range(alg.n_basis)]
    return chains_to_dict([(f"chain{c}", [
        (Fraction(rng.choice((-2, -1, 1, 3))) if inst.mode == EXACT
         else complex(rng.choice((-2, -1, 1, 3))),
         [rng.choice(names) for _ in range(length)] or ["Id"])
        for length in (1, 2, 3, 0)]) for c in range(2)])


def test_trace_answers_every_mutated_chain_file(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for label in ("T1", "r7f"):
        inst = instance(label)
        path = tmp_path / f"{label}.json"
        save_instance(inst, str(path))
        for k, text in enumerate(mutants(_chains(inst, rng), rng,
                                         CHAIN_FILES_PER_BASE)):
            chain = tmp_path / f"{label}-chain-{k}.json"
            chain.write_text(text, encoding="utf-8")
            for cyclic in ([], ["--cyclic", "1"]):
                code = cli.main(["trace", "--instance", str(path), "--chain",
                                 str(chain)] + cyclic)
                capsys.readouterr()
                assert code in (0, 1, 2), (label, cyclic, text)
                codes.append(code)
    assert len(codes) == 2 * 2 * CHAIN_FILES_PER_BASE
    assert {0, 2} <= set(codes)


# rational and complex flag strings at the edges of the number parsers
RATIONALS = ["1/0", "nan", "1e400", "-0", "1/0,1", "1,1/0", "nan,1",
             "1e400,1", "-0,-0", "1/3,-1/3"]

# valid gen flags per base, as (flag, value) pairs
GEN_BASES = [
    [("--kind", "matrix"), ("--preset", "T1")],
    [("--kind", "matrix"), ("--dims", "2,1"), ("--mode", "float"),
     ("--tolerance", "1e-9")],
    [("--kind", "torus"), ("--N", "1"), ("--tau", "1/2,1"),
     ("--order-cap", "2"), ("--output", "json")],
    [("--kind", "random"), ("--dims", "2,2"), ("--seed", "3")],
    [("--kind", "random"), ("--dims", "1,2"), ("--seed", "7"),
     ("--mode", "float")],
]


def _gen_mutant(base: list, rng: random.Random) -> list:
    """``base`` with one or two flag edits."""
    flags = list(base)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(flags))
        flag, value = flags[k]
        kind = rng.randrange(3)
        if kind == 0 and not (flag == "--dims"
                              and ("--kind", "random") in base):
            pick = rng.choice(VALUES + RATIONALS)
            flags[k] = (flag, pick if isinstance(pick, str)
                        else json.dumps(pick))
        elif kind == 1 and len(flags) > 1:
            del flags[k]
        else:
            flags.insert(k, (flag, value))
    return flags


def test_gen_answers_every_mutated_argv(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for b, base in enumerate(GEN_BASES):
        for k in range(GEN_ARGV_PER_BASE):
            argv = ["gen", *(x for pair in _gen_mutant(base, rng)
                             for x in pair),
                    "--out", str(tmp_path / f"gen-{b}-{k}.json")]
            try:
                code = cli.main(argv)
            except SystemExit as exc:        # argparse refused the argv
                code = exc.code
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            codes.append(code)
    assert len(codes) == len(GEN_BASES) * GEN_ARGV_PER_BASE
    assert {0, 2} <= set(codes)
