"""Every public top-level function or class of the library is reached from
library code, or is a named oracle of a fast path, or is part of the
acceptance contract (tests/test_acceptance.py).  Anything else is dead
surface: a second implementation that only tests keep alive."""

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
