"""Every public top-level function or class of the library is reached from
library code, or is a named oracle of a fast path, or is part of the
acceptance contract (tests/test_acceptance.py).  Every member of a library
class (method, property, class attribute or dataclass field; dunders
aside) is read as an attribute by library code outside its own
definition, or is named in ALLOWED_MEMBERS with a reason.  Anything else
is dead surface: a second implementation, or a channel, that only tests
keep alive."""

import ast
import pathlib

import ptml

SOURCES = sorted(pathlib.Path(ptml.__file__).parent.glob("*.py"))

ALLOWED = {
    "criteria.negativity_lower_bound": "acceptance contract",
    "criteria.stieltjes_witness": "acceptance contract",
    "dense.depolarize_local_via_weights": "oracle of dense.depolarize_local",
    "dense.log_negativity": "acceptance contract",
    "dense.schmidt_rank": "oracle of pauli.bell_pair_rank",
    "enumerators.ghz_sl_vector": "oracle of sl_enumerators on GHZ and of "
                                 "GHZModel.fidelity and purities",
    "enumerators.noisy_pt_moment": "acceptance contract; with the tables, "
                                   "oracle of StabilizerModel.moments",
    "enumerators.qwe_bruteforce": "acceptance contract",
    "gleason.sl_convolve": "oracle of gleason._product_vector",
    "pauli.theta": "oracle of the PT signs of enumerators._element_tables",
    "spectra.distinct_count": "acceptance contract",
    "spectra.ghz_local_spectrum": "oracle of spectra.ghz_local_moments",
    "spectra.ppt_threshold_ghz": "acceptance contract",
}

# (module, class, member): reason
ALLOWED_MEMBERS = {}


def _references(path: pathlib.Path, tree: ast.Module):
    """((module, name), top) for each library name one module loads: its
    own top-level names, names imported from a sibling module and
    attributes of an imported sibling module; top is the top-level
    statement that loads it."""
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                if node.id in names:
                    yield names[node.id], top
                elif node.id in own:
                    yield (path.stem, node.id), top
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                yield (modules[node.value.id], node.attr), top


def _unreached() -> list:
    """Public top-level definitions loaded nowhere but in their own body."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    defs = {(path.stem, node.name): node
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}
    reached = {key for path, tree in trees.items()
               for key, top in _references(path, tree)
               if top is not defs.get(key)}
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if (mod, name) not in reached)


def test_public_surface_is_reached_or_named():
    assert SOURCES
    assert [name for name in _unreached() if name not in ALLOWED] == []


def test_allowlist_names_only_unreached_definitions():
    # an allowlisted name that library code now reaches, or that is gone,
    # must leave the list
    assert sorted(ALLOWED) == _unreached()


def _member_names(node) -> list:
    """The names a statement in a class body defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unread_members() -> list:
    """Members of library classes whose name no attribute load outside
    their own definition reads."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    loads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)]
    unread = []
    for path, tree in zip(SOURCES, trees):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                own = {id(x) for x in ast.walk(node)}
                for name in _member_names(node):
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    if not any(x.attr == name and id(x) not in own
                               for x in loads):
                        unread.append((path.stem, cls.name, name))
    return sorted(unread)


def test_class_members_are_read_or_named():
    assert [m for m in _unread_members() if m not in ALLOWED_MEMBERS] == []


def test_member_allowlist_names_only_unread_members():
    assert sorted(ALLOWED_MEMBERS) == _unread_members()
