"""The scope matrix: every subcommand on every supported algebra.

Each of the 29 algebras (A1-A8, B2-B8, C2-C8, D3-D8 and G2) meets each of
eight subcommand forms at lam = omega_1 + omega_r (omega_1 at rank 1),
sent in-process through `cli.run`.  140 cells run.  The other 92 exit 2,
by structure, not by cost: the operator routes (`bsum --method demazure`,
`bsum --method both` and `verify`) on the 24 algebras without an operator
formula, and `eval`, whose evaluators enumerate the Weyl group, at rank 4
and up.  A change that lifts a refusal flips its cells here.
"""

import pytest

from polychar.cli import run

_ALGEBRAS = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
             + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(3, 9)] + ["G2"])
_WITH_FORMULA = {"A1", "A2", "B2", "G2", "A3"}
_NO_FORMULA = "no operator polytope-sum formula for"
_WEYL_CAP = "full Weyl-group enumeration is capped"


def _cells(algebra: str) -> list:
    """(argv, the first words of the refusal or None) for each form."""
    rank = int(algebra[1:])
    labels = ["1" if i in (0, rank - 1) else "0" for i in range(rank)]
    formula = None if algebra in _WITH_FORMULA else _NO_FORMULA
    return [
        (["char", algebra, *labels], None),
        (["bsum", algebra, *labels, "--method", "oracle"], None),
        (["bsum", algebra, *labels, "--method", "demazure"], formula),
        (["bsum", algebra, *labels, "--method", "both"], formula),
        (["verify", "--algebra", algebra, "--max-label", "1"], formula),
        (["eval", "--algebra", algebra, "--lam", *labels, "--sigma-count", "2"],
         _WEYL_CAP if rank >= 4 else None),
        (["expand", algebra, *labels], None),
        (["vertices", algebra, *labels], None),
    ]


def test_scope_matrix_counts():
    refused = [message for algebra in _ALGEBRAS for _argv, message in _cells(algebra) if message]
    assert len(_ALGEBRAS) == 29
    assert (29 * 8 - len(refused), len(refused)) == (140, 92)


@pytest.mark.parametrize("algebra", _ALGEBRAS)
def test_scope_matrix(capsys, algebra):
    for argv, message in _cells(algebra):
        code = run(argv)
        captured = capsys.readouterr()
        if message is None:
            assert code == 0, (argv, captured.err)
            assert captured.out and captured.err == "", argv
        else:
            assert code == 2, argv
            assert captured.out == "", argv
            assert captured.err.startswith(f"error: {message} "), (argv, captured.err)
