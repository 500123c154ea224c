"""The public surface of zslen: every public name is computed with, every
private helper is read in the package, every default of a private helper is
used by the package, and every argument check raises :class:`InputError`."""

import ast
from pathlib import Path

import pytest

from zslen.cf import CFExpansion, exceptional_witness, min_delta_pair, min_delta_sym_quad, scan_exceptional
from zslen.delta_rho import divisor_closure
from zslen.errors import InputError
from zslen.fp import FPMonoid, delta_rho_star_product, fp_length_set, transfer_obstruction
from zslen.groups import AbelianGroup, cyclic
from zslen.lengths import LengthSet, length_set
from zslen.sequences import GSequence, SupportSet, enumerate_atoms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zslen"

# public names that nothing in the package or the benchmark computes with,
# each kept for a stated reason
UNREFERENCED_ON_PURPOSE = {
    "lengths.kernel_basis_of": "builds the kernel certificates of ROADMAP item 7",
    "sequences.is_atom": "the certificate checker of ROADMAP item 7 tests atoms with it, not with the DFS",
    "cf.exceptional_witness": "acceptance criteria check the scan against it",
    "verify.run_suite": "acceptance criteria run single suites through it",
    "verify.VerifySuite.ok": "acceptance criteria assert on it",
    "groups.AbelianGroup.element_order": "tests check the direct-sum embeddings against it",
}


def _public_definitions(tree):
    """``(qualified name, node)`` for each public module-level function and
    class, and each public method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _reads(trees):
    """``name -> [(module, line, is attribute)]`` for each name and attribute
    read in ``trees``, a mapping from module name to tree."""
    out = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((module, node.lineno, True))
    return out


def _unreferenced():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    bench = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))}
    reads = _reads({m: t for m, t in modules.items() if m != "__init__"} | bench)
    out = set()
    for module, tree in modules.items():
        for qualified, node in _public_definitions(tree):
            method = "." in qualified  # a method is read as an attribute only
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                (attr or not method) and not (where == module and line in own)
                for where, line, attr in reads.get(qualified.rpartition(".")[2], ())
            ):
                out.add(f"{module}.{qualified}")
    return out


def test_every_public_name_is_computed_with():
    # a public name is read in the package outside its own definition and
    # __init__.py, or in perfbench; the allowlist holds exactly the rest
    assert _unreferenced() == set(UNREFERENCED_ON_PURPOSE)


def test_every_private_helper_is_read_in_the_package():
    # a private module-level function or class is read by some module of the
    # package, __init__.py included, outside its own definition; a reader in
    # tests or perfbench alone does not keep a helper in src/
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = _reads(modules)
    unread = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                own = range(node.lineno, node.end_lineno + 1)
                if all(where == module and line in own for where, line, _ in reads.get(node.name, ())):
                    unread.add(f"{module}.{node.name}")
    assert unread == set()


def _defaulted(function):
    """``{name: position}`` of the parameters of ``function`` that have a
    default; a keyword-only parameter has no position."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    out = {a.arg: i for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return out


def test_every_default_of_a_private_helper_is_left_out_by_some_call_in_the_package():
    # a default that every call in the package passes serves only callers
    # outside it; a call is matched by the function's name, as a name or an
    # attribute, and one that unpacks *args or **kwargs passes everything
    modules = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    defaults = {node.name: _defaulted(node) for tree in modules for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    unused = {(function, name) for function, names in defaults.items() for name in names}
    for tree in modules:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed = {k.arg for k in call.keywords}
            if callee not in defaults or None in passed or any(isinstance(a, ast.Starred) for a in call.args):
                continue
            unused -= {(callee, name) for name, at in defaults[callee].items()
                       if name not in passed and (at is None or at >= len(call.args))}
    assert unused == set()


C4 = cyclic(4)
_SUPPORT = SupportSet.of(C4, [(1,), (3,)])
_OTHER = SupportSet.of(C4, [(1,), (2,), (3,)])


@pytest.mark.parametrize("call, message", [
    (lambda: CFExpansion(5, 2, ()), "bad quotient list"),
    (lambda: CFExpansion(5, 2, (2, 3)), "does not reconstruct"),
    (lambda: min_delta_pair(3, 2), "need n > 3"),
    (lambda: min_delta_pair(10, 1), "need a in"),
    (lambda: min_delta_sym_quad(3, 2), "need n > 3"),
    (lambda: min_delta_sym_quad(10, 4), "gcd"),
    (lambda: exceptional_witness(2), "need n >= 3"),
    (lambda: scan_exceptional(8, 20, engine="e3"), "unknown engine"),
    # the value is checked before the atoms: these generators fail
    # fp_atoms with a sublattice error
    (lambda: fp_length_set(FPMonoid.of(2, [(1, 1), (0, 2)]), (0, -1)), "values are nonnegative"),
    (lambda: delta_rho_star_product([0]), "minimum distances are positive"),
    (lambda: transfer_obstruction([]), "at least one"),
    (lambda: transfer_obstruction([0]), "minimum distances are positive"),
    (lambda: AbelianGroup((2, 3)), "not a divisor chain"),
    (lambda: AbelianGroup((1,)), "must be >= 2"),
    (lambda: C4.neg((1, 2)), "rank mismatch"),
    (lambda: C4.scalar_mul(2, (1, 2)), "rank mismatch"),
    (lambda: LengthSet.of([-1, 2]), "nonnegative"),
    # every positive integer divides 0, so no finite closure exists
    (lambda: divisor_closure([0]), "positive integers"),
    (lambda: divisor_closure([-6]), "positive integers"),
    (lambda: length_set(GSequence(_SUPPORT, (1, 1)), enumerate_atoms(_OTHER)), "share a support"),
])
def test_argument_checks_raise_input_errors(call, message):
    with pytest.raises(InputError, match=message):
        call()
