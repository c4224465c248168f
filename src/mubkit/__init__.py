"""mubkit: exact mutually orthogonal extraordinary supersquares and
mutually unbiased bases for multi-qubit systems.

The package loads lazily: ``import mubkit`` imports no submodule, and a
public name (``mubkit.build_mub_set``, ``from mubkit import Point``) or a
submodule (``mubkit.squares``) imports its home module on first use.  So
a command that only reads squares never compiles the MUB modules.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "gf2n": """DEFAULT_POLYS Field FieldBasis FieldElement default_selfdual_basis
            dual_basis field_for_dimension is_selfdual""",
        "phasespace": """Point Subgroup det enumerate_extraordinary_subgroups
            is_extraordinary trace_zero_subgroup""",
        "squares": """CompleteSet CompleteSetReport Square SquareKind Supersquare
            are_orthogonal classify perturb_supersquare render_ascii
            supersquare_from_subgroup type_I_set type_II_set_d4 type_II_set_d8
            type_III_set_d8 type_IV_set_d8 verify_complete_set""",
        "squaresdoc": """SquareReport is_physical_striation is_supersquare verify_square
            verify_squares""",
        "search": "SearchResult complete_set_templates search_complete_sets",
        "pauli": "GaussInt PauliWord",
        "mub": """ConstructionError EntanglementStructure MubBasis MubSet Separability
            UnnormalizedState apply_correspondence build_mub_set classify_basis
            common_eigenbasis structure""",
        "mubdoc": "BIPARTITIONS certify_bases rank_profile schmidt_rank separability",
    }.items()
    for name in names.split()
}

_SUBMODULES = "gf2n phasespace squares squaresdoc search pauli mub mubdoc serialize cli".split()

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
