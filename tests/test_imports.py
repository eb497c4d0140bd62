"""Import hygiene of the package, read from the source with `ast`.

Every name a module imports is used in it, the layers below the
integrators and the command line import neither, and a module reads
another's underscore names only where `PRIVATE_READS` lists it,
names that became test oracles or were folded into another stay out of
the library, the command line refuses bad input and prints to stderr in
one place, code is generated, sphere axes are chosen and matrices are
decomposed in one place only, no module imports a threading library, and
every function and class of the package is used by the package itself.
"""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "multiflag"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
BELOW_DYNAMICS = ["hyperspherical", "numerics", "arm", "fields", "flags",
                  "sampling"]
# (reader, owner, name): the only underscore names one package module reads
# from another; a new one is added here on purpose or made public
# (`arm._scalar` is the one JSON scalar rule of both loaders)
PRIVATE_READS = {("dynamics", "fields", "_cascade"),
                 ("dynamics", "arm", "_write_json"),
                 ("dynamics", "arm", "_scalar"),
                 ("cli", "arm", "_write_json")}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def imports(tree):
    """(bound name, imported module path) for every import statement; a
    relative path keeps its leading dots."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], a.name)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "." * node.level + (node.module or "")
            out += [(a.asname or a.name,
                     base if node.module else base + a.name)
                    for a in node.names]
    return out


def package_module(path):
    """The `multiflag` module an import path names, or None."""
    parts = path.lstrip(".").split(".")
    if path.startswith("."):
        return parts[0]
    return parts[1] if parts[0] == "multiflag" and len(parts) > 1 else None


def used_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # `__all__` re-exports count as uses
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = parse(module)
    unused = sorted({name for name, _ in imports(tree)} - used_names(tree))
    assert unused == [], f"{module} imports {unused} without using them"


@pytest.mark.parametrize("module", BELOW_DYNAMICS)
def test_lower_layers_skip_dynamics_and_cli(module):
    upper = [path for _, path in imports(parse(module))
             if package_module(path) in ("dynamics", "cli")]
    assert upper == [], f"{module} imports {upper}"


def private_reads(module):
    """(reader, owner, name) for every underscore name `module` takes from
    another package module, by `from .m import _x` or as `m._x` on a name
    it imported from there."""
    tree = parse(module)
    owners = {name: package_module(path) for name, path in imports(tree)}
    out = {(module, owner, name) for name, owner in owners.items()
           if owner and name.startswith("_")}
    return out | {(module, owners[n.value.id], n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name)
                  and owners.get(n.value.id)
                  and n.attr.startswith("_") and not n.attr.startswith("__")}


def references(tree):
    """How often each name is referred to in a tree: as a name, an
    attribute or an imported name."""
    return collections.Counter(
        getattr(ref, "id", None) or getattr(ref, "attr", None) or ref.name
        for ref in ast.walk(tree)
        if isinstance(ref, (ast.Name, ast.Attribute, ast.alias)))


def test_every_definition_is_used():
    # every module-level function and class is referenced by other code of
    # the package (outside its own body) or exported in `__all__`, so no
    # helper stays in the library for the tests alone
    trees = {module: parse(module) for module in MODULES}
    exported = used_names(trees["__init__"])
    package = sum(map(references, trees.values()), collections.Counter())
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and package[node.name] == references(node)[node.name]
              and node.name not in exported]
    assert unused == []


def test_private_names_stay_private():
    reads = set().union(*(private_reads(m) for m in MODULES))
    assert reads == PRIVATE_READS


@pytest.mark.parametrize("name", ["car_x1_field", "car_x2_field", "MODE_CAR",
                                  "chart_to_embedded", "cart_delta_field",
                                  "z0_field"])
def test_oracle_names_stay_out_of_fields(name):
    # the planar car fields, the inverse chart map and the generator-wise
    # Cartesian field live in tests/test_fields.py, and Z_0 is X_0^0
    # (`x0_field(dims, 0)`); the library keeps one form of each
    import multiflag
    from multiflag import fields
    assert not hasattr(fields, name) and not hasattr(multiflag, name)


def test_one_refusal_path_in_cli():
    # bad input leaves the command line through `main` alone: no other
    # function returns EXIT_USAGE or catches ValueError, except `_read`,
    # which re-raises it naming the flag and the file
    usage, catching = set(), set()
    for fn in parse("cli").body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "EXIT_USAGE":
                usage.add(fn.name)
            if isinstance(node, ast.ExceptHandler):
                caught = {n.id for n in ast.walk(node.type or ast.Name(
                    "BaseException")) if isinstance(n, ast.Name)}
                if caught & {"ValueError", "Exception", "BaseException"}:
                    catching.add(fn.name)
                    reraises = any(isinstance(n, ast.Raise)
                                   for n in ast.walk(node))
                    assert reraises or fn.name == "main", fn.name
    assert usage == {"main"}
    assert catching == {"main", "_read"}


def is_bound(node):
    """A number literal, or a name or attribute `inf`."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return ("inf" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.Constant)
            and type(node.value) in (int, float))


def test_flag_domains_are_option_types():
    # each numeric flag's domain is the `type=` of its option, so no
    # function of the command line compares a parsed numeric flag (an
    # `args.<flag>`, or a name bound to one) with a number, nor asks
    # whether it is finite
    tree = parse("cli")
    numeric = {call.args[0].value.lstrip("-").replace("-", "_")
               for call in ast.walk(tree) if isinstance(call, ast.Call)
               and getattr(call.func, "attr", None) == "add_argument"
               and any(kw.arg == "type" for kw in call.keywords)}
    assert {"T", "h", "vn", "seed", "tol", "eps_sing"} <= numeric
    checks = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue

        def flag(node):
            return (isinstance(node, ast.Attribute) and node.attr in numeric
                    and getattr(node.value, "id", None) == "args")
        # the names a loop or an assignment binds to a value of a flag
        bound = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.For):
                source, targets = node.iter, [node.target]
            elif isinstance(node, ast.Assign):
                source, targets = node.value, node.targets
            else:
                continue
            if any(map(flag, ast.walk(source))):
                bound |= {name.id for target in targets
                          for name in ast.walk(target)
                          if isinstance(name, ast.Name)}

        def parsed(node):
            return flag(node) or getattr(node, "id", None) in bound
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt,
                                              ast.GtE)) for op in node.ops)
                sides = [node.left] + node.comparators
                if (ordered and any(map(parsed, sides))
                        and any(map(is_bound, sides))):
                    checks.append((fn.name, ast.unparse(node)))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id",
                                                           None))
                    in ("isfinite", "isinf", "isnan")
                    and any(map(parsed, node.args))):
                checks.append((fn.name, ast.unparse(node)))
    assert checks == []


def test_only_main_writes_stderr():
    # a refusal or a failed check is raised to `main`, which prints it as
    # the one stderr line `<command>: <reason>`
    writers = {fn.name for fn in ast.walk(parse("cli"))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "stderr"
               and getattr(node.value, "id", None) == "sys"}
    assert writers == {"main"}


def test_code_generated_in_one_place():
    # `dynamics._arm_kernel` compiles and runs the generated step loops of
    # every route; no other function compiles, executes or evaluates a
    # string
    calls = set()
    for module in MODULES:
        for fn in parse(module).body:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("exec", "compile", "eval")):
                    calls.add((module, getattr(fn, "name", None),
                               node.func.id))
    assert calls == {("dynamics", "_arm_kernel", "exec"),
                     ("dynamics", "_arm_kernel", "compile")}


def test_axis_choice_in_one_place():
    # a projected tangent frame picks its ambient axes at the point, in
    # `fields.sphere_axis_frame`; no other function names `tangent_axes`
    users = set()
    for module in MODULES:
        for fn in parse(module).body:
            for node in ast.walk(fn):
                if "tangent_axes" in (getattr(node, "id", None),
                                      getattr(node, "attr", None)):
                    users.add((module, getattr(fn, "name", None)))
    assert users == {("fields", "sphere_axis_frame")}


# the numpy.linalg routines that factor a matrix (or solve through a factor)
DECOMPOSITIONS = {"svd", "svdvals", "qr", "eig", "eigh", "eigvals",
                  "eigvalsh", "cholesky", "lstsq", "pinv", "matrix_rank",
                  "solve", "inv", "det", "slogdet", "tensorsolve",
                  "tensorinv"}


def test_decompositions_in_one_place():
    # every np.linalg decomposition is called in `numerics`, whose helpers
    # keep the stacked results exactly those of one call per matrix; no
    # module imports linalg or a routine of it by name
    calls = set()
    for module in MODULES:
        tree = parse(module)
        assert not any("linalg" in name or "linalg" in path
                       for name, path in imports(tree)), module
        for fn in tree.body:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute)
                        and node.attr in DECOMPOSITIONS
                        and getattr(node.value, "attr", None) == "linalg"):
                    calls.add((module, getattr(fn, "name", None), node.attr))
    assert calls == {("numerics", "RowSpan", "svd"),
                     ("numerics", "singular_values", "svd"),
                     ("numerics", "span_angle", "eigvalsh")}


def test_threads_in_one_place():
    # the package runs in the calling thread: no module imports a
    # threading library
    threaded = {(module, path) for module in MODULES
                for _, path in imports(parse(module))
                if path.split(".")[0] in ("concurrent", "threading",
                                           "multiprocessing", "_thread")}
    assert threaded == set()
