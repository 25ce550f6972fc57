"""Exact-arithmetic local homology on finite oriented simplicial complexes:
Cohen-Macaulay detection, the top local (co)homology sheaf and cosheaf, cap
products, the double-complex collapse, duality verification, functoriality
under star-local maps, and section-dual characterizations of degree-zero
cosheaf homology."""

from .caps import (cap_plain, cap_v1, cap_v2, leibniz_defect_v1,
                   leibniz_defect_v2, relative_cap)
from .complexes import (SimplicialComplex, Subcomplex, is_vc_before,
                        orient_vc_before, parse_complex, parse_subcomplex,
                        perm_sign, reorient_vc_before)
from .fixtures import (FIXTURES, bowtie, circle3, hexagon, hexagon_cover_map,
                       rp2_six, sphere2, triangle)
from .homology import (ChainComplex, HomologyPresentation, induced_matrix,
                       is_isomorphism)
from .identities import (collapse_suite, collapse_vs_cap,
                         full_identity_report, leibniz_sweep,
                         mv_identity_sweep, swap_sweep)
from .localhomology import (LocalCohomologyCosheaf, LocalContext,
                            LocalHomologySheaf, cm_check, link_crosscheck,
                            local_cm_check, uct_report)
from .matrices import (Matrix, invariant_factors, kernel_basis,
                       smith_normal_form, solve)
from .mv import (DUALITY_ITEMS, MVDoubleComplex, c_dual, c_dual_reversed,
                 fundamental_class, verify_duality)
from .rings import GF, QQ, ZZ, ring_from_name
from .sectionsduality import (RestrictionSystem, build_restriction_system,
                              compactly_determined_dual, doubling_system,
                              lf_h0_check, semistability_check)
from .sheaves import (cosheaf_chain_complex, region_rel, region_sub, sections,
                      sheaf_cochain_complex, simplicial_chain_complex,
                      simplicial_cochain_complex)
from .simplicialmaps import (SimplicialMap, check_star_local,
                             pullback_cochain, pushforward_chain,
                             shriek_down, shriek_up, verify_naturality)
