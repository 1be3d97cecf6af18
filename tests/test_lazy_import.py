"""The package loads each layer on first use, and each CLI command only the
layers it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetmod

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the package's public names by defining module, written out here so that a
# name dropped from the package's own table fails these tests
EXPORTED = {
    "multiindex": "JetIndexTable multi_binom pochhammer theta theta_inv",
    "jets": "JetMatrix JetSeries jet_matrix_inverse series_context",
    "kernels": "AffineChart KernelSpec ParseError DomainError builtin_bergman "
               "conjugate_by_unitary diagonal_chart direct_sum gauge_scale identity_chart "
               "matrix_combination parse_expression parse_kernel pullback_affine",
    "geometry": "CurvatureTensor GramJet NormalizedKernel curvature curvature_covariant_derivs "
                "default_samples gram_jet hermitian_sqrt normalize_at transport_maps",
    "jet_kernels": "ChartJetTransform JetKernelValue ModuleActionMatrix chart_jet_transform "
                   "jet_column jet_kernel module_action_matrix sym_power_matrix",
    "bergman_quotient": "build_level closed_forms coeff_c level_measured quotient_kernel_partial",
    "equivalence": "EquivalenceReport InvariantArray UnitaryWitness invariant_array "
                   "lemma_em_check mthm_check rank1_equiv rankr_equiv recover_bergman_weights",
}
LAYERS = (*EXPORTED, "cli")


@pytest.mark.parametrize("module", EXPORTED)
def test_every_exported_name_is_its_modules_object(module):
    mod = importlib.import_module(f"jetmod.{module}")
    for name in EXPORTED[module].split():
        assert getattr(jetmod, name) is getattr(mod, name), name


def test_all_and_dir_list_the_exported_names():
    names = {name for names in EXPORTED.values() for name in names.split()}
    assert sorted(jetmod.__all__) == sorted(names)
    assert names <= set(dir(jetmod))
    star = {}
    exec("from jetmod import *", star)
    assert names == set(star) - {"__builtins__"}


def test_default_samples_is_one_object():
    from jetmod import equivalence, geometry

    assert jetmod.default_samples is geometry.default_samples is equivalence.default_samples


def test_submodules_resolve():
    for module in LAYERS:
        assert getattr(jetmod, module) is sys.modules[f"jetmod.{module}"]


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_EXPORTS_", "np", "importlib_"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(jetmod, name)
    assert not hasattr(jetmod, "check_tol")  # public in a layer, not exported


def test_lookups_leave_the_package_namespace_alone():
    for module in LAYERS:
        importlib.import_module(f"jetmod.{module}")
    before = dict(vars(jetmod))
    for name in (*jetmod.__all__, *LAYERS):
        getattr(jetmod, name)
    after = vars(jetmod)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not set(jetmod.__all__) & set(after)


KERNELS = {
    "b2.kernel": "m = 1\nK = bergman(2)\n",
    "b12.kernel": "m = 2\nK = bergman(1, 2)\n",
}
BASE = {"multiindex", "jets", "kernels", "geometry", "cli"}
COMMANDS = {
    "import": ([], {"multiindex", "jets", "kernels", "cli"}),
    "curvature": (["curvature", "--kernel", "b2.kernel", "--points", "0"], BASE),
    "jetkernel": (["jetkernel", "--kernel", "b12.kernel", "-k", "2"], BASE | {"jet_kernels"}),
    "equiv": (["equiv", "--kernel", "b12.kernel", "--kernel2", "b12.kernel", "-d", "1",
               "-k", "2", "--num-samples", "1", "--tol", "1e-8"], BASE | {"equivalence"}),
    "recover-weights": (["recover-weights", "--weights", "1.5,2", "--num-samples", "1"],
                        BASE | {"equivalence"}),
    "quotient-demo": (["quotient-demo", "--pmax", "2", "--plevels", "0"],
                      BASE | {"bergman_quotient", "jet_kernels"}),
}
PROBE = """
import json, sys
import jetmod.cli
code = jetmod.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("jetmod."))]))
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_layers(command, tmp_path):
    for name, text in KERNELS.items():
        (tmp_path / name).write_text(text)
    args, layers = COMMANDS[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(f"jetmod.{layer}" for layer in layers)
