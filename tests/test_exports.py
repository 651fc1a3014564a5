"""The package's public names, and the names the benchmark traces: every
one must still exist.  Every module-level function or class must be used,
and no per-node product reads a transposed view outside a listed few."""

import ast
import importlib
import importlib.util
import pathlib

import isogauss


def test_every_name_in_all_resolves():
    assert len(set(isogauss.__all__)) == len(isogauss.__all__)
    assert [name for name in isogauss.__all__
            if not hasattr(isogauss, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from isogauss import *", namespace)
    assert set(isogauss.__all__) <= set(namespace)


# traced names that no longer exist in the package; the benchmark reads
# them as 0 until its name list is mended
KNOWN_ABSENT = {("gaussmap", "build_gauss_field"),
                ("gaussmap", "degeneracy_report"),
                ("codim", "run_codim_pipeline"), ("codim", "build_U_codim"),
                ("grid", "staircase_orders"), ("admissibility", "spd_sqrt"),
                ("admissibility", "check_minimal_m2"),
                # the Codazzi defect is a test reference now; no workload
                # has called it since the pipeline stopped evaluating it
                ("admissibility", "codazzi_residual")}


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, fn):
    try:
        home = importlib.import_module(f"isogauss.{module}")
    except ModuleNotFoundError:
        return False
    return callable(getattr(home, fn, None))


def test_every_traced_name_resolves():
    # a rename in the package must fail here, not silently blind the
    # benchmark's per-layer spans
    tracer = _load_tracer()
    absent = {(module, fn) for module, fn in tracer.TRACED + tracer.COUNTED
              if not _resolves(module, fn)}
    assert sorted(absent - KNOWN_ABSENT) == []


def _used_names(root: pathlib.Path) -> set[str]:
    """Identifiers, attribute names, imported names and whole string
    constants (the benchmark traces functions by name) of every Python file
    under ``src/``, ``scripts/`` and ``perfbench/``; a definition's own
    name is none of these."""
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_module_level_definition_is_used():
    # a function or class that only the tests call is dead code: delete it
    # and port its tests to what the package uses instead
    root = pathlib.Path(__file__).resolve().parents[1]
    used = _used_names(root)
    dead = [f"{path.stem}.{node.name}"
            for path in sorted((root / "src" / "isogauss").glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]
    assert dead == []


# transposed operands of ``@`` kept on purpose, by (module, function,
# operand source), each with its reason.  numpy runs a batched product 3-4x
# slower when ``X.mT @ X`` takes its symmetric-rank-k route or the right
# operand is a transposed view; a contiguous copy costs about 0.7 ms per
# (257^2, 2, 2) stack.
TRANSPOSED_OPERANDS = {
    ("codim", "_right_singular", "E.mT"):
        "E is theorem3's per-block system: a copy would raise its peak",
}


def _is_transposed(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "mT"
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "attr", getattr(func, "id", None)) == "swapaxes"
    return False


def _transposed_operands(tree: ast.AST, module: str):
    """(module, innermost function, operand source) of every ``.mT`` or
    ``swapaxes`` operand of ``@`` or ``np.matmul``."""
    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        operands = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "matmul"):
            operands = node.args[:2]
        for operand in operands:
            if _is_transposed(operand):
                yield module, function, ast.unparse(operand)
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, None)


def test_batched_products_take_contiguous_operands():
    # a per-node product must not read a transposed view, except at the
    # sites listed above; a listed site that is gone must leave the list
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "isogauss"
    found = {site for path in sorted(root.glob("*.py"))
             for site in _transposed_operands(ast.parse(path.read_text()),
                                              path.stem)}
    assert sorted(found - set(TRANSPOSED_OPERANDS)) == []
    assert sorted(set(TRANSPOSED_OPERANDS) - found) == []


def _package_imports(path: pathlib.Path) -> set[str]:
    """Short names of the package modules that one module imports, in
    relative or absolute form."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["isogauss" if node.level else None,
                                          node.module]))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names
            if name.startswith("isogauss.")}


def test_oracle_is_independent_of_the_decision_code():
    # surfaces is the closed-form oracle the pipeline is checked against: it
    # must not import the code that decides or reconstructs
    path = (pathlib.Path(__file__).resolve().parents[1] / "src" / "isogauss"
            / "surfaces.py")
    assert _package_imports(path) & {"admissibility", "codim",
                                     "reconstruct"} == set()


def test_no_import_inside_a_function():
    # every module imports at the top, so the import graph is the one its
    # headers show; a cycle must be broken by moving code, not by deferring
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "isogauss"
    found = [f"{path.stem}.{node.name}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                     for inner in ast.walk(node))]
    assert found == []
