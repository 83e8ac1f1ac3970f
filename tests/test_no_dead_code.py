"""``src/`` keeps no member that only tests call.

Every module-level function of ``src/asyncadmm``, and every method and
property of its classes, public or underscore-prefixed, is used in
``src/`` (as a name or an attribute), exported by ``asyncadmm/__init__.py``
or named in README.md, where public API that no code of the package calls
is documented. Every attribute a class of ``src/`` stores on ``self`` is
read as an attribute somewhere in ``src/``, or named in README.md.
Names are matched, not resolved: a member that shares its name with one
in use passes, so the check finds members that nothing names, not every
member without a caller.

Only ``compiled.py`` reads a block table past its row interface
(``ROW_INTERFACE``): the table's layout and both block kernels are that
one module's.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "asyncadmm"


def members(tree):
    """``(qualified name, name)`` of the module's functions and of its
    classes' methods, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if (isinstance(f, ast.FunctionDef)
                        and not (f.name.startswith("__")
                                 and f.name.endswith("__"))):
                    yield f"{node.name}.{f.name}", f.name


def sources():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def readme_words():
    return set(re.findall(r"\w+", (ROOT / "README.md").read_text()))


def test_src_keeps_no_member_that_only_tests_call():
    trees = sources()
    known = readme_words()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
    known.update(alias.asname or alias.name
                 for node in ast.walk(trees["__init__.py"])
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    unused = [f"{module}: {qual}" for module, tree in trees.items()
              for qual, name in members(tree) if name not in known]
    assert unused == []


def stored_on_self(tree):
    """``(class, attribute)`` of every attribute that a method of one of the
    module's classes assigns on ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield node.name, sub.attr


def test_src_reads_every_attribute_it_stores():
    trees = sources()
    read = readme_words()
    read.update(node.attr for tree in trees.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load))
    unread = sorted({f"{module}: {cls}.{attr}"
                     for module, tree in trees.items()
                     for cls, attr in stored_on_self(tree)
                     if attr not in read})
    assert unread == []


# what a module other than compiled.py may read of a block table (``bt``):
# the row layout, the slots a block writes and the moved slots' groups
ROW_INTERFACE = {"layout", "views", "written", "width", "seg", "p0", "Cn",
                 "R", "M", "cuts", "groups"}


def test_only_compiled_reads_the_block_table_past_its_rows():
    """A block table's layout and the kernels that read it are one
    module's, ``compiled``'s: every other module reads a table (``bt``)
    only through its row interface."""
    outside = sorted({f"{module}: bt.{node.attr}"
                      for module, tree in sources().items()
                      if module != "compiled.py"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "bt"
                      and node.attr not in ROW_INTERFACE})
    assert outside == []
