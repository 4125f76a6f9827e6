"""No helper is kept in ``src/qauth`` only for its tests.

Every function, class and method defined at module or class level in
``src/qauth``, and every UPPER_CASE constant assigned at module level,
must be referenced, as a name, an attribute or an import, somewhere in
``src/qauth`` or ``bench/`` outside its own definition; a method or
property counts only as an attribute or an import, since a bare name of
the same spelling is some local.  Every parameter with a default must
be passed by some call there, and no parameter may get one literal
from every call there.  Tests do not count as callers.  Inside
``verify``, only ``monte_carlo`` names a source of randomness, and
nothing names ``is_codeword``.  Only ``LinearCode.decoder`` builds a
decoder, and ``BchAlgebraicDecoder`` sets every attribute in its
``__init__``.
"""

import ast
import textwrap
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# qualified name -> why it stays without a caller in src/qauth or bench/
EXEMPT = {
    "qsim.QubitHandle.consumed": (
        "the handle's one public attribute, which Criterion 7 pins"
    ),
    "protocol.SecretKey.used": "the key's public state, the twin of consumed",
    "protocol.SessionRecord.accepted": (
        "the session's verdict, derived from the accepted message; the "
        "word-level kernel is checked against it trial by trial"
    ),
}


# "module.function(parameter)" -> why no call in src/qauth or bench/ passes it
EXEMPT_DEFAULTS = {
    "cli.main(argv)": (
        "the console-script entry point, which reads sys.argv when called bare"
    ),
    "protocol.run_session(adversary)": (
        "the reference session; only tests drive it with an adversary"
    ),
}


def _referenced_names(node, bare=True):
    """Every attribute and imported name under ``node``, and every name if ``bare``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += bare
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFS):
                        yield f"{module}.{node.name}.{sub.name}", sub


def _src_definitions():
    for path in sorted((ROOT / "src" / "qauth").glob("*.py")):
        yield from _definitions(path.stem, ast.parse(path.read_text()))


def _unused(definitions, trees):
    """The qualified names in ``definitions`` no tree references outside them.

    A member (module.Class.name) counts only through an attribute or an
    import, not through a bare name.
    """
    names, attributes = Counter(), Counter()
    for tree in trees:
        names += _referenced_names(tree)
        attributes += _referenced_names(tree, bare=False)
    unused = []
    for qualname, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        bare = qualname.count(".") == 1
        if (names if bare else attributes)[name] == _referenced_names(node, bare)[name]:
            unused.append(qualname)
    return unused


def _unreferenced():
    paths = sorted((ROOT / "src" / "qauth").glob("*.py"))
    paths += sorted((ROOT / "bench").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    return _unused(_src_definitions(), trees)


@pytest.mark.parametrize("tally, unused", [
    ("accepted = sum(record.ok for record in records)", ["m.Record.accepted"]),
    ("accepted = sum(record.accepted() for record in records)", []),
])
def test_a_local_named_like_a_method_is_no_call(tally, unused):
    tree = ast.parse(textwrap.dedent(f"""
        class Record:
            def accepted(self):
                return self.ok

        def count(records):
            {tally}
            return accepted

        print(count([Record()]))
    """))
    assert _unused(_definitions("m", tree), [tree]) == unused


def _constants(tree):
    """(name, statement) per UPPER_CASE name a module-level statement assigns."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id.isupper():
                        yield sub.id, node


def test_every_constant_is_read_outside_tests():
    paths = sorted((ROOT / "src" / "qauth").glob("*.py"))
    everywhere = Counter()
    for path in paths + sorted((ROOT / "bench").glob("*.py")):
        everywhere += _referenced_names(ast.parse(path.read_text()))
    unread = [
        f"{path.stem}.{name}"
        for path in paths
        for name, node in _constants(ast.parse(path.read_text()))
        if everywhere[name] == _referenced_names(node)[name]
    ]
    assert unread == [], f"constants in src/qauth that nothing reads: {unread}"


def test_every_src_definition_has_a_caller_outside_tests():
    unused = [name for name in _unreferenced() if name not in EXEMPT]
    assert unused == [], f"defined in src/qauth but used only by tests: {unused}"


def test_exemptions_name_existing_definitions():
    defined = {qualname for qualname, _ in _src_definitions()}
    assert set(EXEMPT) <= defined


def test_no_exemption_is_stale():
    # an exemption for a name that gained a caller, or a default that a
    # call now passes, hides nothing and would hide the next one
    stale = sorted(set(EXEMPT) - set(_unreferenced()))
    stale += sorted(set(EXEMPT_DEFAULTS) - set(_unpassed_defaults()))
    assert stale == [], f"exempted, but called or passed in src/qauth or bench/: {stale}"


def test_every_export_is_defined():
    # a stale name in __all__ breaks only ``from qauth import *``
    import qauth

    missing = [name for name in qauth.__all__ if not hasattr(qauth, name)]
    assert missing == [], f"qauth.__all__ names undefined attributes: {missing}"


def _relative_imports(tree):
    """The sibling modules a module imports, at any depth, function bodies included."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import bch
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.partition(".")[0])
    return imported


def test_no_import_cycle():
    # a cycle forces an import into a function body, out of sight of the
    # module's header, and makes the import order matter
    graph = {
        path.stem: _relative_imports(ast.parse(path.read_text()))
        for path in sorted((ROOT / "src" / "qauth").glob("*.py"))
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle in src/qauth: {exc.args[1]}") from None


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _is_init_false(value):
    """``value`` is ``field(..., init=False, ...)``: no ``__init__`` parameter."""
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def _underscore_parameters(tree):
    """(function, parameter) for every ``_``-prefixed parameter in ``tree``.

    A ``@dataclass`` field is a parameter of the generated ``__init__``
    unless it is declared ``field(init=False)``.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            for param in params:
                if param is not None and param.arg.startswith("_"):
                    yield getattr(node, "name", "<lambda>"), param.arg
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id.startswith("_")
                    and not _is_init_false(stmt.value)
                ):
                    yield f"{node.name}.__init__", stmt.target.id


def test_no_function_takes_an_underscore_parameter():
    # such a parameter is a hidden knob that only an internal caller sets
    found = [
        f"{path.stem}.{function}({param})"
        for path in sorted((ROOT / "src" / "qauth").glob("*.py"))
        for function, param in _underscore_parameters(ast.parse(path.read_text()))
    ]
    assert found == [], f"underscore parameters in src/qauth: {found}"


def _call_name(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _parameters(module, tree):
    """(label, call name, position, parameter, defaulted) per named parameter.

    A call reaches ``__init__`` by its class's name, and passes a method
    its arguments after ``self`` or ``cls``; ``position`` counts from
    there, and is None for a keyword-only parameter.
    """

    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                yield from visit(sub, sub.name)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from function(sub, owner)
                yield from visit(sub, None)
            else:
                yield from visit(sub, owner)

    def function(node, owner):
        a = node.args
        positional = a.posonlyargs + a.args
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        name = owner if node.name == "__init__" else node.name
        label = f"{module}.{owner + '.' if owner else ''}{node.name}"
        first = len(positional) - len(a.defaults)
        for index, param in enumerate(positional):
            yield f"{label}({param.arg})", name, index, param.arg, index >= first
        for param, default in zip(a.kwonlyargs, a.kw_defaults):
            yield f"{label}({param.arg})", name, None, param.arg, default is not None

    yield from visit(tree, None)


def _defaulted_parameters(module, tree):
    """(label, call name, position, parameter) per parameter with a default."""
    for label, name, position, param, defaulted in _parameters(module, tree):
        if defaulted:
            yield label, name, position, param


def _passes(call, position, param):
    """``call`` passes ``param`` by keyword, by position, or through * or **."""
    return (
        any(isinstance(arg, ast.Starred) for arg in call.args)
        or any(k.arg in (None, param) for k in call.keywords)
        or (position is not None and len(call.args) > position)
    )


def _unpassed_defaults():
    paths = sorted((ROOT / "src" / "qauth").glob("*.py"))
    calls = [
        node
        for path in paths + sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    for path in paths:
        tree = ast.parse(path.read_text())
        for label, name, position, param in _defaulted_parameters(path.stem, tree):
            if not any(
                _call_name(call) == name and _passes(call, position, param)
                for call in calls
            ):
                yield label


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a knob that does nothing
    unpassed = sorted(set(_unpassed_defaults()) - set(EXEMPT_DEFAULTS))
    assert unpassed == [], f"defaulted parameters no caller passes: {unpassed}"


def test_default_exemptions_name_defaulted_parameters():
    defaulted = {
        label
        for path in sorted((ROOT / "src" / "qauth").glob("*.py"))
        for label, *_ in _defaulted_parameters(path.stem, ast.parse(path.read_text()))
    }
    assert set(EXEMPT_DEFAULTS) <= defaulted


def _literal_passed(call, position, param):
    """The literal ``call`` passes as ``param``, dumped, or None if it passes
    no literal there: another expression, nothing, or maybe something
    through * or **."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return None
    passed = [k.value for k in call.keywords if k.arg == param]
    if position is not None and len(call.args) > position:
        passed.append(call.args[position])
    if not passed:
        return None
    try:
        ast.literal_eval(passed[0])
    except ValueError:
        return None
    return ast.dump(passed[0])


def _one_valued_parameters(definition_trees, call_trees):
    """Labels of the parameters that every call passes one literal.

    ``definition_trees`` maps a module name to its tree; the calls are
    every call in ``call_trees``, matched by name as in the defaults
    check.
    """
    calls = [
        node
        for tree in call_trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    for module, tree in definition_trees.items():
        for label, name, position, param, _ in _parameters(module, tree):
            passed = {
                _literal_passed(call, position, param)
                for call in calls
                if _call_name(call) == name
            }
            if len(passed) == 1 and None not in passed:
                yield label


@pytest.mark.parametrize("calls, flagged", [
    ('draw(seed, "trial")\ndraw(seed + 1, "trial")', ["m.draw(label)"]),
    ('draw(seed, "trial")\ndraw(seed + 1, label="trial")', ["m.draw(label)"]),
    ('draw(seed, "trial")\ndraw(seed + 1, "batch")', []),
    ('draw(seed, "trial")\ndraw(seed + 1)', []),
    ('draw(seed, "trial")\ndraw(*args)', []),
    ('draw(0, label)', ["m.draw(seed)"]),
])
def test_a_literal_every_call_passes_is_flagged(calls, flagged):
    definition = ast.parse(textwrap.dedent("""
        def draw(seed, label="trial"):
            return seed, label
    """))
    assert list(_one_valued_parameters({"m": definition}, [ast.parse(calls)])) == flagged


def test_no_argument_is_one_literal_at_every_call():
    # a parameter every caller sets to one value is a constant in disguise
    paths = sorted((ROOT / "src" / "qauth").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    calls = list(trees.values())
    calls += [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    found = sorted(_one_valued_parameters(trees, calls))
    assert found == [], f"parameters every call in src/qauth or bench/ passes one literal: {found}"


# what a Monte Carlo kernel would name to derive its own randomness
RANDOMNESS = {"substream", "trial_words", "Stream", "getrandbits"}


def _named_outside(tree, names, owner=None):
    """(line, name) wherever ``tree`` names one of ``names`` outside its
    module-level function ``owner``, as a name, an attribute or a string
    constant; an import is no use of it."""
    found = []
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == owner:
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in names:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("kernel, found", [
    ("return len(words)", []),
    ('"""Counts words, never a trial_words call."""', []),
    ('return list(map(methodcaller("getrandbits", 6), streams))', [(5, "getrandbits")]),
    ("return [stream.getrandbits(6) for stream in streams]", [(5, "getrandbits")]),
    ("streams: list[Stream] = []", [(5, "Stream")]),
    ("return substream(seed, 'trial', 0)", [(5, "substream")]),
])
def test_randomness_outside_monte_carlo_is_flagged(kernel, found):
    tree = ast.parse(textwrap.dedent(f"""
        from .rng import Stream, substream, trial_words

        def kernel(words, streams, seed):
            {kernel}

        def monte_carlo(seed, bits):
            return [substream(seed, "trial", i).getrandbits(bits) for i in range(9)]
    """))
    assert _named_outside(tree, RANDOMNESS, "monte_carlo") == found


def test_only_monte_carlo_derives_randomness_in_verify():
    # the kernels count the trial words monte_carlo hands them, so every
    # attack has one input contract and one place its bits come from
    tree = ast.parse((ROOT / "src" / "qauth" / "verify.py").read_text())
    found = _named_outside(tree, RANDOMNESS, "monte_carlo")
    assert found == [], f"verify names randomness outside monte_carlo: {found}"


@pytest.mark.parametrize("kernel, found", [
    ("return code.count_codewords(words, size)", []),
    ('"""Bob\'s test, never an is_codeword call."""', []),
    ("is_codeword = code.is_codeword", [(5, "is_codeword"), (5, "is_codeword")]),
    ('return sum(map(methodcaller("is_codeword"), readouts))', [(5, "is_codeword")]),
])
def test_a_named_is_codeword_is_flagged(kernel, found):
    tree = ast.parse(textwrap.dedent(f"""
        from .codes import LinearCode

        def kernel(code, words, readouts, size):
            {kernel}
    """))
    assert _named_outside(tree, {"is_codeword"}) == found


def test_verify_counts_readouts_with_count_codewords():
    # Bob's test has one implementation, count_codewords; a per-word
    # is_codeword call in a kernel would be a second path to keep equal
    tree = ast.parse((ROOT / "src" / "qauth" / "verify.py").read_text())
    found = _named_outside(tree, {"is_codeword"})
    assert found == [], f"verify names is_codeword: {found}"


# what building a decoder calls; only LinearCode.decoder may call them
DECODER_BUILDERS = {"BchAlgebraicDecoder", "syndrome_table_decoder"}


def _calls_by_owner(module, tree, names):
    """(place, owner) per call of one of ``names`` in ``tree``: its file and
    line, and the qualified name of the innermost def or class around it
    (the module itself at module level)."""
    found = []

    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, DEFS):
                visit(sub, f"{owner}.{sub.name}")
                continue
            if isinstance(sub, ast.Call) and _call_name(sub) in names:
                found.append((f"{module}.py:{sub.lineno}", owner))
            visit(sub, owner)

    visit(tree, module)
    return found


@pytest.mark.parametrize("source, found", [
    ("class LinearCode:\n"
     "    @property\n"
     "    def decoder(self):\n"
     "        return syndrome_table_decoder(self.h, self.t)",
     [("codes.py:4", "codes.LinearCode.decoder")]),
    ("class LinearCode:\n"
     "    def __init__(self, field, t):\n"
     "        self._decoder = bch.BchAlgebraicDecoder(field, t)",
     [("codes.py:3", "codes.LinearCode.__init__")]),
    ("DECODER = syndrome_table_decoder(H, 1)", [("codes.py:1", "codes")]),
    ("is_bch = isinstance(decoder, BchAlgebraicDecoder)", []),
])
def test_a_decoder_build_is_placed_by_its_owner(source, found):
    tree = ast.parse(source)
    assert _calls_by_owner("codes", tree, DECODER_BUILDERS) == found


def test_only_linear_code_decoder_builds_a_decoder():
    # one place chooses and builds a code's decoder, on its first decode
    found = [
        (place, owner)
        for path in sorted((ROOT / "src" / "qauth").glob("*.py"))
        for place, owner in _calls_by_owner(
            path.stem, ast.parse(path.read_text()), DECODER_BUILDERS
        )
        if owner != "codes.LinearCode.decoder"
    ]
    assert found == [], f"decoders built outside LinearCode.decoder: {found}"


def _decorator_names(function):
    decorators = function.decorator_list
    return {getattr(d, "id", None) or getattr(d, "attr", None) for d in decorators}


def _self_attributes(function):
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]


def _attributes_set_outside_init(cls):
    """(line, name) per ``self`` attribute that ``cls`` builds outside ``__init__``.

    That is an attribute a method other than ``__init__`` stores, one it
    reads that neither ``__init__`` assigns nor the class defines as a
    method, and every ``cached_property`` (at its definition).
    """
    functions = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
    lazy = {f.name for f in functions if "cached_property" in _decorator_names(f)}
    found = [(f.lineno, f.name) for f in functions if f.name in lazy]
    known = {f.name for f in functions} - lazy
    for function in functions:
        if function.name == "__init__":
            known |= {
                a.attr for a in _self_attributes(function) if isinstance(a.ctx, ast.Store)
            }
    for function in functions:
        if function.name != "__init__":
            found += [
                (a.lineno, a.attr)
                for a in _self_attributes(function)
                if isinstance(a.ctx, ast.Store) or a.attr not in known
            ]
    return sorted(found)


@pytest.mark.parametrize("body, found", [
    ("def lookup(self, v):\n"
     "    return self._rows[v]", []),
    ("def lookup(self, v):\n"
     "    if self._table is None:\n"
     "        self._table = build()\n"
     "    return self._table[v]", [(8, "_table")]),
    ("def lookup(self, v):\n"
     "    return (self._table or self._build())[v]\n"
     "def _build(self):\n"
     "    self._table = build()\n"
     "    return self._table", [(9, "_table")]),
    ("@cached_property\n"
     "def _terms(self):\n"
     "    return build()\n"
     "def lookup(self, v):\n"
     "    return self._terms[v]", [(7, "_terms"), (10, "_terms")]),
    ("def lookup(self, v):\n"
     "    return self._missing[v]", [(7, "_missing")]),
])
def test_a_table_built_outside_init_is_flagged(body, found):
    source = textwrap.dedent("""
        class Decoder:
            def __init__(self, t):
                self._rows = build()
                self._table = None
    """) + textwrap.indent(body, "    ")
    cls = ast.parse(source).body[0]
    assert _attributes_set_outside_init(cls) == found


def test_bch_decoder_is_built_whole():
    # a decoder that exists holds every table it decodes with, so there
    # is no lazy build inside it to follow: LinearCode.decoder is the one
    tree = ast.parse((ROOT / "src" / "qauth" / "bch.py").read_text())
    cls = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "BchAlgebraicDecoder"
    )
    found = _attributes_set_outside_init(cls)
    assert found == [], f"BchAlgebraicDecoder builds attributes outside __init__: {found}"
