"""Lazy loading: `import lochom` loads no submodule, an exported name loads
its module on first access, and each command loads only the modules it
runs.  The module sets are read in fresh interpreters, since a module this
test session has already imported stays loaded."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import lochom
from lochom import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.normpath(os.path.join(ROOT, "src"))


def fix(name):
    return os.path.normpath(os.path.join(ROOT, "fixtures", name))


# module -> the names lochom exports from it
EXPORTS = {
    "caps": ["cap_plain", "cap_v1", "cap_v2", "leibniz_defect_v1",
             "leibniz_defect_v2", "relative_cap"],
    "complexes": ["SimplicialComplex", "Subcomplex", "is_vc_before",
                  "orient_vc_before", "parse_complex", "parse_subcomplex",
                  "perm_sign", "reorient_vc_before"],
    "fixtures": ["circle3", "hexagon", "hexagon_cover_map", "rp2_six"],
    "homology": ["ChainComplex", "HomologyPresentation", "induced_matrix",
                 "is_isomorphism"],
    "identities": ["collapse_suite", "collapse_vs_cap",
                   "full_identity_report", "leibniz_sweep",
                   "mv_identity_sweep", "swap_sweep"],
    "localhomology": ["LocalCohomologyCosheaf", "LocalContext",
                      "LocalHomologySheaf", "cm_check", "link_crosscheck",
                      "local_cm_check", "uct_report"],
    "matrices": ["Matrix", "invariant_factors", "kernel_basis",
                 "smith_normal_form", "solve"],
    "mv": ["MVDoubleComplex", "c_dual", "c_dual_reversed",
           "fundamental_class", "verify_duality"],
    "rings": ["GF", "QQ", "ZZ", "ring_from_name"],
    "sectionsduality": ["RestrictionSystem", "build_restriction_system",
                        "compactly_determined_dual", "doubling_system",
                        "lf_h0_check", "semistability_check"],
    "sheaves": ["DUALITY_ITEMS", "cosheaf_chain_complex", "region_rel",
                "region_sub", "sections", "sheaf_cochain_complex",
                "simplicial_chain_complex", "simplicial_cochain_complex"],
    "simplicialmaps": ["SimplicialMap", "check_star_local",
                       "pullback_cochain", "pushforward_chain", "shriek_down",
                       "shriek_up", "verify_naturality"],
}

CORE = {"cli", "complexes", "rings", "matrices", "homology", "sheaves",
        "localhomology"}
FILT = ["--filtration", fix("c3_arcs.filt")]
# command line -> the modules it loads beyond CORE
COMMAND_MODULES = [
    (["local", "--dim", "1", "--complex", fix("c3.cplx")], set()),
    (["check-cm", "--complex", fix("bowtie.cplx")], set()),
    (["homology", "--complex", fix("rp6.cplx")], set()),
    (["duality", "--item", "1ai", "--complex", fix("rp6.cplx")],
     {"caps", "mv"}),
    (["identities", "--complex", fix("t4.cplx")],
     {"caps", "mv", "identities"}),
    (["sections", "--complex", fix("c3.cplx"), *FILT], {"sectionsduality"}),
    (["naturality", "--complex", fix("hex.cplx"), "--target", fix("c3.cplx"),
      "--map", fix("hex_to_c3.map")], {"simplicialmaps", "mv", "caps"}),
]


def fresh_python(*args):
    """Run a fresh interpreter that imports lochom from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=False)


LOADED = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("lochom."))))
"""


def loaded_after(code):
    proc = fresh_python("-c", LOADED.format(code))
    assert proc.returncode == 0, proc.stderr
    return {m[len("lochom."):] for m in json.loads(proc.stdout)}


def test_import_lochom_loads_no_submodule():
    assert loaded_after("import lochom") == set()


def test_an_exported_name_loads_its_module_and_what_it_imports():
    assert loaded_after("from lochom import cm_check") == {
        "homology", "localhomology", "matrices", "sheaves"}


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    out = str(tmp_path / "report.json")
    assert loaded_after(
        f"import lochom.cli\nlochom.cli.main({[*argv, '--out', out]!r})"
    ) == CORE | extra


def test_all_lists_the_exports():
    assert sorted(lochom.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    assert len(lochom.__all__) == 70


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_the_object_its_module_defines(module):
    mod = importlib.import_module(f"lochom.{module}")
    for name in EXPORTS[module]:
        obj = getattr(lochom, name)
        assert obj is getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__


def test_an_unknown_name_is_refused():
    with pytest.raises(ImportError):
        from lochom import nosuch  # noqa: F401
    with pytest.raises(AttributeError, match="nosuch"):
        getattr(lochom, "nosuch")


# command lines whose reports the entry point writes, with their exit codes
ENTRY_POINT = [
    (["local", "--dim", "1", "--complex", fix("c3.cplx")], 0),
    (["duality", "--item", "1ai", "--ring", "fp:2",
      "--complex", fix("rp6.cplx")], 0),
    (["sections", "--dim", "2", "--complex", fix("c3.cplx"), *FILT], 1),
    (["check-cm", "--complex", fix("bowtie.cplx")], 1),
]


@pytest.mark.parametrize("argv, code", ENTRY_POINT,
                         ids=[argv[0] for argv, _ in ENTRY_POINT])
def test_the_entry_point_writes_the_in_process_report(tmp_path, argv, code):
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    proc = fresh_python("-m", "lochom.cli", *argv, "--out", str(fresh))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")
    assert cli.main([*argv, "--out", str(here)]) == code
    assert fresh.read_bytes() == here.read_bytes()


def test_the_entry_point_exits_2_on_bad_input():
    proc = fresh_python("-m", "lochom.cli", "homology", "--ring", "fp:abc",
                        "--complex", fix("c3.cplx"))
    assert proc.returncode == 2
    assert proc.stderr == ("error: ring selector 'fp:abc': write the prime in "
                           "plain decimal digits\n")


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_the_entry_point_exits_2_on_an_unwritable_report(tmp_path, capsys,
                                                        where):
    out = tmp_path / "nosuch" / "r.json" if where != "directory" else tmp_path
    argv = ["local", "--complex", fix("c3.cplx"), "--out", str(out)]
    proc = fresh_python("-m", "lochom.cli", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", proc.stderr)
