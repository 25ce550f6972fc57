"""Exact-arithmetic local homology on finite oriented simplicial complexes:
Cohen-Macaulay detection, the top local (co)homology sheaf and cosheaf, cap
products, the double-complex collapse, duality verification, functoriality
under star-local maps, and section-dual characterizations of degree-zero
cosheaf homology.

`import lochom` loads no submodule.  Each exported name loads its module on
first access (`lochom.cm_check`, `from lochom import cm_check`), so a program
compiles only the modules whose names it reads."""

from importlib import import_module

# module -> the names lochom exports from it
_EXPORTS = {
    "caps": "cap_plain cap_v1 cap_v2 leibniz_defect_v1 leibniz_defect_v2 "
            "relative_cap",
    "complexes": "SimplicialComplex Subcomplex is_vc_before orient_vc_before "
                 "parse_complex parse_subcomplex perm_sign reorient_vc_before",
    "fixtures": "circle3 hexagon hexagon_cover_map rp2_six",
    "homology": "ChainComplex HomologyPresentation induced_matrix "
                "is_isomorphism",
    "identities": "collapse_suite collapse_vs_cap full_identity_report "
                  "leibniz_sweep mv_identity_sweep swap_sweep",
    "localhomology": "LocalCohomologyCosheaf LocalContext LocalHomologySheaf "
                     "cm_check link_crosscheck local_cm_check uct_report",
    "matrices": "Matrix invariant_factors kernel_basis smith_normal_form "
                "solve",
    "mv": "MVDoubleComplex c_dual c_dual_reversed fundamental_class "
          "verify_duality",
    "rings": "GF QQ ZZ ring_from_name",
    "sectionsduality": "RestrictionSystem build_restriction_system "
                       "compactly_determined_dual doubling_system "
                       "lf_h0_check semistability_check",
    "sheaves": "DUALITY_ITEMS cosheaf_chain_complex region_rel region_sub "
               "sections sheaf_cochain_complex simplicial_chain_complex "
               "simplicial_cochain_complex",
    "simplicialmaps": "SimplicialMap check_star_local pullback_cochain "
                      "pushforward_chain shriek_down shriek_up "
                      "verify_naturality",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
