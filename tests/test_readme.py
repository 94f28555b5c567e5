"""The README's ``Library`` block runs, and its values are the ones its
comments state, so the documented signatures cannot go stale; and the
README states the Kloosterman moment identities as their exact check
does."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MOMENTS = README.parent / "tests" / "test_kloosterman_moments.py"

# expression in the block -> the value its comment states; a trailing
# "..." means the repr starts with what comes before it
CLAIMS = {
    "tensor.constant(1, 1, 0)": "Fraction(1, 8)",
    "stationary(m)": "(Fraction(1, 49), Fraction(8, 49), ...",
    "mixing_time(kernel).tau": "4",
    "coupling_bound(m).tau_bound": "92",
    "spectrum(kernel).alpha_star": "0.5617...",
    "comparison_bound(kernel).A": "11.428571428571429",
    "odd_cycle_bound(kernel).v": "32.0",
}


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def run_block(source: str) -> dict:
    """Run the block statement by statement; the value of each bare
    expression, keyed by its source text."""
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_builds_the_kernel_from_the_modulus(monkeypatch):
    # build_kernel reads only its argument's p, so the block would also
    # run if it passed the tensor
    import circlewalk

    seen = []
    real = circlewalk.build_kernel

    def recording(modulus):
        seen.append(type(modulus))
        return real(modulus)

    monkeypatch.setattr(circlewalk, "build_kernel", recording)
    run_block(library_block())
    assert seen == [circlewalk.PrimeModulus]


def test_readme_library_block_states_its_values():
    source = library_block()
    comments = {}
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        comments[code.strip()] = comment.strip()
    values = run_block(source)
    for expr, claim in CLAIMS.items():
        assert comments[expr].startswith(claim), expr
        shown = repr(values[expr])
        if claim.endswith("..."):
            assert shown.startswith(claim[:-3]), (expr, shown)
        else:
            assert shown == claim, (expr, shown)


def identities(text: str) -> list[str]:
    """The trace identity and the M_1 to M_4 lines, stripped of indent
    and of a trailing comma or full stop."""
    return [line.strip().rstrip(",.") for line in text.splitlines()
            if re.match(r"\s*(Tr\(S\^n\)|M_[1-4]) = ", line)]


def test_readme_states_the_moment_identities_as_their_check_does():
    readme = identities(README.read_text(encoding="utf-8"))
    check = identities(MOMENTS.read_text(encoding="utf-8"))
    assert len(check) == 5
    assert readme == check
