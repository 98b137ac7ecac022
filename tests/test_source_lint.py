"""Static checks on the package source."""

import ast
from pathlib import Path

import orthinst

SOURCES = sorted(Path(orthinst.__file__).parent.glob("*.py"))


def test_no_runtime_asserts():
    # `assert` vanishes under python -O, so a guard on the mathematics must
    # be an explicit check raising an OrthinstError
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.Name) and node.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}: AssertionError")
    assert len(SOURCES) >= 10
    assert found == []


def test_no_block_data_shadow():
    # a flat form is its matrix M: nothing reads a `.source` copy of its
    # block data, and block terms are read only where specs are validated,
    # flattened and written
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            if node.attr == "source" or (node.attr == "terms" and path.name not in ("forms.py", "specfile.py")):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []


def test_integer_storage_read_only_in_linalg_and_forms():
    # a RatMatrix is integer rows `num` over one denominator `den`; only the
    # elimination core and the flat-form contractions read that storage
    found = []
    for path in SOURCES:
        if path.name in ("linalg.py", "forms.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ("num", "den"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []


def _callers(name, skip=()):
    # "module.py:function" for each call of `name`, by its innermost enclosing function
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == name:
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in SOURCES:
        if path.name not in skip:
            visit(ast.parse(path.read_text(), str(path)), f"{path.name}:<module>")
    return callers


def _readers(attr):
    # "module.py:Class.function" for each load of the attribute `attr`, by the definitions enclosing it
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if ":" in where else f"{where}:{node.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == attr:
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), path.name)
    return readers


def test_slices_read_only_by_the_pencil():
    # which slices fold into a Pluecker coordinate is decided in
    # FlatForm._slices, and one method mixes them; the wedge test reads
    # the same folds
    assert _readers("_slices") == {"forms.py:FlatForm.pencil", "forms.py:wedge_membership"}


def test_map_entries_read_through_one_view():
    # a monad map's entries are read only as its nonzero coefficients: by
    # the composition identity, the section maps and the display
    assert _readers("coefficients") == {
        "monad.py:verify_monad_identity",
        "cohomology.py:_section_shape",
        "cohomology.py:_section_rows",
        "jsonio.py:linform_matrix_json",
    }


def test_maps_built_only_by_their_builders():
    # a monad map is built in one place per map, straight into its nonzero
    # coefficients
    assert _callers("LinFormMatrix") == {"monad.py:build_alpha", "monad.py:_beta_rows"}


def test_map_layer_builds_no_fraction():
    # a monad map is integer coefficients over one denominator, so its
    # builders, its composition identity and its section maps run on ints
    found = {where for where in _callers("Fraction") if where.split(":")[0] in ("monad.py", "cohomology.py")}
    assert found == set()


def test_no_per_variable_parts():
    # a map is stored once, as its coefficients, with no coefficient
    # matrix per variable beside them
    assert _readers("parts") == set()


def test_no_str_methods():
    # values are formatted for output only in jsonio and the CLI text, so
    # no class carries a text form of its own
    found = [
        f"{path.name}:{node.lineno}: {cls.name}.__str__"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__str__"
    ]
    assert found == []


def test_bareiss_only_where_its_echelon_is_read():
    # rank eliminates by the primitive-row rule, on dense and sparse rows
    # alike; Bareiss is kept for the last pivot of det and the echelon of
    # kernel_basis
    assert _callers("_bareiss") == {"linalg.py:det", "linalg.py:kernel_basis"}


def test_one_decomposable_kernel_search():
    # A2 and K1 are one statement, sampled by one search: outside the
    # elimination core only the two contraction kernels the search reads
    # eliminate, each on the upper triangle of its Gram matrix, and nothing
    # asks for a general kernel basis
    assert _callers("gram_kernel", skip=("linalg.py",)) == {
        "forms.py:kernel_along_point",
        "forms.py:kernel_along_charge",
    }
    assert _callers("kernel_basis", skip=("linalg.py",)) == set()


def test_no_slice_contraction():
    # a contraction A is read only through its Gram matrix A^T A, which has
    # its kernel: nothing defines or calls a builder of A itself
    names = ("along_point", "along_charge")
    defined = [
        f"{path.name}:{node.lineno}: def {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    ]
    assert defined == []
    assert all(_callers(name) == set() for name in names)


def test_gram_read_only_by_the_search():
    # the one search asks for a contraction's kernel through its Gram matrix
    for name in ("kernel_along_point", "kernel_along_charge"):
        assert _callers(name) == {"monad.py:nondegeneracy_witness_search"}


def test_pfaffian_taken_only_by_the_verdict():
    # a line's verdict is a function of its pencil alone, decided in one place
    assert _callers("pfaffian", skip=("linalg.py",)) == {"kronecker.py:pencil_verdict"}


def test_det_taken_only_by_the_verdict_and_the_action():
    # besides the line verdict, a determinant only tests a base change for
    # invertibility
    assert _callers("det") == {"kronecker.py:pencil_verdict", "forms.py:act"}


def test_one_span_rule():
    # a point pair spans a line by one rule, in the pencil and the orbit panel
    assert _callers("line_span_ok") == {"kronecker.py:gamma_eval", "moduli.py:_seeded_panel"}


def test_a2_status_built_only_by_the_decision():
    # every A2, K1 and K2 status is the one decision's
    assert _callers("A2Status") == {"monad.py:nondegeneracy"}


def test_only_the_line_scan_takes_a_box():
    # the witness search draws from one fixed box; the line scan is the one
    # sampler whose box is a setting
    takers = {
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "box" in [arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    }
    assert takers == {"kronecker.py:scan_lines"}


def test_box_streams_draw_through_the_randint_replica():
    # the line scan, the witness search and the orbit panel draw their
    # pinned streams through monad.randints, which replicates randint by
    # getrandbits; specfile sits below monad and keeps its own entry draws
    streams = ("monad.py", "kronecker.py", "moduli.py")
    assert {where for where in _callers("randint") if where.split(":")[0] in streams} == set()
    assert _callers("randints") == {"kronecker.py:scan_lines", "monad.py:_directions", "moduli.py:_seeded_panel"}


def test_kronecker_imports_no_private_monad_name():
    # K1 reads A2's decision and runs no search or policy of its own
    tree = ast.parse((Path(orthinst.__file__).parent / "kronecker.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "monad"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_private_names_across_modules():
    # what one module keeps private, such as the cohomology engine, no other
    # module of the package imports
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "orthinst"):
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def _outside_linalg():
    for path in SOURCES:
        if path.name != "linalg.py":
            yield path, ast.walk(ast.parse(path.read_text(), str(path)))


def test_exact_entries_parsed_only_in_linalg():
    # every point, direction and contraction vector goes through
    # linalg.exact_vector, so no other module parses an entry itself
    found = []
    for path, nodes in _outside_linalg():
        for node in nodes:
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name == "_as_exact":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: _as_exact")
    assert found == []


def test_no_parsing_matrix_constructor_outside_linalg():
    # integer data becomes a matrix through RatMatrix.from_ints; the parsing
    # constructor RatMatrix(...) is for user-facing rational entries
    found = []
    for path, nodes in _outside_linalg():
        for node in nodes:
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == "RatMatrix":
                found.append(f"{path.name}:{node.lineno}: RatMatrix(...)")
    assert found == []


def test_no_matrix_products():
    # beta . alpha = 0 is decided from the maps' nonzero coefficients, so no
    # module multiplies dense matrices; RatMatrix.__matmul__ itself stays
    # for the tests and the benchmark's span recorder, which wrap and call it
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
    assert found == []


# the module layers, lowest first: a module imports only modules before it
LAYERS = ("errors", "linalg", "forms", "specfile", "monad", "kronecker", "cohomology", "moduli", "jsonio", "cli")


def test_modules_import_only_lower_layers():
    # generation decides by rank alone, so specfile sits below monad
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    assert sorted(path.stem for path in modules) == sorted(LAYERS)
    found = []
    for path in modules:
        lower = LAYERS[: LAYERS.index(path.stem)]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found += [f"{path.name}:{node.lineno}: .{name}" for name in names if name.split(".")[0] not in lower]
    assert found == []
