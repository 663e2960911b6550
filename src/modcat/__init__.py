"""modcat: exact bookkeeping for based rings, module classes and fusion tables.

The package computes, in exact arithmetic only, the finite combinatorial
shadows of semisimple module 2-categories: based rings and their bounded
module and homomorphism enumerations, connected-component analysis of
skeletons, module-class counts over pointed categories, deformation
cohomology dimensions, and the product tables of the three worked families
(real closed base, prime fields, braided cyclic gradings).

``import modcat`` runs none of the library modules.  Each one is registered
in ``sys.modules`` and as a package attribute through
``importlib.util.LazyLoader``, and its body runs on first attribute access;
the public names below load on first use.  Inside the package a module names
a sibling, ``from . import poly``, and reads its names where it calls them,
``poly.factor_list(f)``; that runs poly only when the call is made.  A
module-level ``from .poly import Poly`` is kept only where every command
that runs the importer calls into poly (``tests/test_imports.py`` lists
those edges).  So a CLI command runs only the modules it calls into, and as
each CLI family's handlers are in their own module, ``modcat.cli.<family>``,
it compiles no other family's code.
"""

import importlib.util
import sys

# defining module -> the public names it exports
_EXPORTS = {
    "fields": "CyclotomicField CycElem FpElem PrimeField QQ RationalField "
              "cyclotomic_polynomial field_from_code",
    "linalg": "Matrix kernel_basis rank rref solve",
    "algebras": "NoUnit NotCommutative StructureConstantAlgebra split_commutative_algebra",
    "fieldprofile": "BASE COMPLEXIFICATION QUATERNION DivisionAlgebraClass FieldKind "
                    "FieldProfile NotInBrauerGroup UnsupportedProfile alg_closed "
                    "brauer_add classify_finite_separable_closure "
                    "division_algebra_classes finite finite_ext profile_from_code "
                    "rationals real_closed separably_closed_nonperfect",
    "basedring": "BasedRingData ValidatedRing WeakBasedCertificate canonical_form "
                 "fibonacci_ring find_weak_based_involutions group_ring "
                 "rings_equivalent tau trivial_ring validate_zplus_ring",
    "zmodule": "EnumerationBounds RingHomCandidate ValidatedModule ZPlusModuleData "
               "direct_sum enumerate_irreducible_modules enumerate_ring_homs "
               "is_indecomposable is_irreducible regular_module validate_module",
    "skeleton": "CompactnessReport TwoCatSkeleton ValidatedSkeleton compactness_report "
                "decompose_object mod_pointed_skeleton mod_real_skeleton pi0 "
                "truncated_family_2vect_fp validate_skeleton",
    "groups": "FiniteAbelianGroup",
    "pointed": "BraidingParam H2Descriptor ModuleClass PointedCatData Subgroup "
               "braidings_on_cyclic h2_of_abelian module_classes square_class_witnesses "
               "subgroups",
    "dy": "DYComplex PointedFunctorData SeparabilityDiagnostic build_dy_complex "
          "dy_cohomology_dims separability_diagnostic",
    "fusion2": "Fusion2Product GradedAlgebraObject braided_tensor_algebra "
               "coefficient_field finite_field_tensor graded_group_algebra "
               "pointed_braided_product rational_division_algebra "
               "real_division_tensor realize_module_class unit_algebra_object",
    "errors": "GuardError ModcatError SizeGuardExceeded UsageError ValidationError",
}

# public name -> (defining module, attribute)
_PUBLIC = {name: (module, name) for module, names in _EXPORTS.items() for name in names.split()}
_PUBLIC["AlgebraNotAssociative"] = ("algebras", "NotAssociative")

__all__ = list(_PUBLIC)
__version__ = "0.1.0"

# every library submodule; poly, laws and ints export no public name
for _name in (*_EXPORTS, "poly", "laws", "ints"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    try:
        module, attribute = _PUBLIC[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], attribute)
    return value
