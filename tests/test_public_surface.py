"""Every public function, class and method in the package has a caller in the package.

A public function or class that no code in ``src/multippi`` names (as a
variable, attribute or import), or a public method or property that no code
reads as an attribute (``obj.name``), is either listed below with the reason
it stays, or it is dead code to delete. Strings and docstrings do not count.
A member counts as called when any class's member of that name is read, so a
method that shares its name with a read member of another class escapes this
check.
"""

import ast
from pathlib import Path

import multippi

SOURCES = sorted(Path(multippi.__file__).parent.glob("*.py"))

# Public names nothing in the package calls, each kept for a stated reason.
UNCALLED_BY_DESIGN = {
    "mlogit.nll": "criteria 1-2 test the package's own kernel through it",
    "mlogit.nll_grad": "criteria 1-2 test the package's own kernel through it",
    "mlogit.nll_hess": "criteria 1-2 test the package's own kernel through it",
    "mlogit.per_row_grads": "criteria 1-2 test the package's own kernel through it",
    "ppi.fit_naive": "README library API: the naive fit of one PpiInputs",
    "ppi.fit_multippi_report": "README library API: the multippi fit of one PpiInputs",
    "ppi.rectified_loss": "library API in docs/math.md; the exact lambda = 0 / 1 identity tests",
    "ppi.rectified_hessian": "library API in docs/math.md; the exact lambda identity tests",
    "ppi.confidence_intervals": "library API in docs/math.md; the interval tests in test_ppi.py",
    "ppi.InferenceReport.to_json": "README library example",
    "ppi.PpiInputs.n_params": "the row-level reference fits in tests/test_grouped.py",
    "simulate.default_spec": "the default config of the tests and perfbench/test_selftest.py",
    "textpred.tokenize": "the tokenizer reference in tests/oracles.py",
    "textpred.Corpus.from_tokens": "the tokenizer reference in tests/oracles.py",
}


def public_definitions(module: str, tree: ast.Module) -> set[str]:
    """Qualified names of the module's public functions, classes and methods."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found.update(f"{module}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return found


def named_in_code(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The identifiers the module's code names (variables, attributes and imports),
    and those of them it reads as attributes."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names | attributes, attributes


def uncalled_public_names(sources) -> set[str]:
    defined, named, attributes = set(), set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined |= public_definitions(path.stem, tree)
        in_module, as_attributes = named_in_code(tree)
        named |= in_module
        attributes |= as_attributes
    # module.function and module.Class need a name; module.Class.member an attribute
    return {qual for qual in defined
            if qual.rsplit(".", 1)[-1] not in (attributes if qual.count(".") == 2 else named)}


def test_every_uncalled_public_name_is_listed_with_a_reason():
    assert uncalled_public_names(SOURCES) == set(UNCALLED_BY_DESIGN)
    assert all(reason.strip() for reason in UNCALLED_BY_DESIGN.values())


def test_guard_sees_a_new_uncalled_function(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text('def helper():\n    """Named only here: "helper"."""\n',
                     encoding="utf-8")
    assert uncalled_public_names(SOURCES + [extra]) == set(UNCALLED_BY_DESIGN) | {"extra.helper"}


def test_guard_counts_a_member_only_when_read_as_an_attribute(tmp_path):
    # a local variable that shares a property's name is not a call of it
    extra = tmp_path / "extra.py"
    extra.write_text("class Box:\n"
                     "    @property\n"
                     "    def width(self):\n"
                     "        return 1\n"
                     "\n"
                     "\n"
                     "width = Box()\n", encoding="utf-8")
    assert uncalled_public_names(SOURCES + [extra]) \
        == set(UNCALLED_BY_DESIGN) | {"extra.Box.width"}
