"""Names looked up at run time, by the benchmark tracer and by the CLI's
usage table, and names the README cites, must resolve."""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves_in_abelift():
    tracing = _load_tracing()
    assert tracing.SPANNED
    missing = [f"{mod}.{attr}" for mod, attr in tracing.SPANNED
               if not callable(getattr(
                   importlib.import_module("abelift." + mod), attr, None))]
    assert missing == []


def test_every_module_name_the_readme_cites_resolves():
    """A backticked `module.name` in README.md, for an abelift module,
    names a real attribute: a rename must take the README along."""
    import abelift
    modules = {m.name for m in pkgutil.iter_modules(abelift.__path__)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cited = [(mod, name) for mod, name in re.findall(
        r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", readme) if mod in modules]
    assert cited
    missing = [f"{mod}.{name}" for mod, name in cited if not hasattr(
        importlib.import_module("abelift." + mod), name)]
    assert missing == []


def test_every_export_resolves_and_star_binds_exactly_all():
    """A deletion must take its export along: each name in abelift.__all__
    is bound, and `from abelift import *` binds those names and no more."""
    import abelift
    assert len(set(abelift.__all__)) == len(abelift.__all__)
    assert [name for name in abelift.__all__
            if not hasattr(abelift, name)] == []
    namespace: dict = {}
    exec("from abelift import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(abelift.__all__)


def test_walk_searches_feed_the_traced_walk_metric():
    """The benchmark counts walk signings by name: every seed of a walk
    search must go through pseudorandom.expander_walk_signing."""
    importlib.import_module("abelift.cli")  # the tracer wraps cli.main
    from abelift.graphs import random_regular
    from abelift.search import exponential_regime_build
    with _load_tracing().Tracer() as tracer:
        exponential_regime_build(random_regular(8, 3, seed=1), 16, 4)
    assert tracer.counts["pseudorandom.expander_walk_signing.calls"] == 4


def test_every_usage_rule_names_real_options():
    """cli._NEEDS rows are matched by name at run time, so a misspelt
    command, option, value or destination would switch a rule off."""
    import argparse

    from abelift import cli
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, option, values, needs in cli._NEEDS:
        assert command in commands, command
        actions = {a.dest: a for a in commands[command]._actions}
        assert option in actions, (command, option)
        assert set(values) <= set(actions[option].choices), (command, values)
        assert set(needs) <= set(actions), (command, needs)


def test_import_leaves_the_matching_modules_unloaded():
    """Importing abelift (and its CLI) loads neither scipy.optimize nor
    scipy.spatial.  No library path calls spectral.linear_sum_assignment,
    but the tracer wraps it by name, so it stays a module-level callable
    that imports scipy.optimize only when called."""
    code = ("import sys, abelift, abelift.cli; "
            "print(sorted({'scipy.optimize', 'scipy.spatial'} "
            "& set(sys.modules))); "
            "print(callable(abelift.spectral.linear_sum_assignment))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_no_matching_calls_the_traced_assignment():
    from abelift import spectral
    rng = np.random.default_rng(0)
    a = rng.random(40) + 1j * rng.random(40)
    # the nearest-neighbour bound fails, so the threshold is bisected
    with _load_tracing().Tracer() as tracer:
        assert spectral.multiset_max_distance(a, a + 0.5) >= 0.5
    assert tracer.counts["spectral.multiset_max_distance.calls"] == 1
    assert tracer.counts["spectral.linear_sum_assignment.calls"] == 0


def test_cli_import_gen_base_hikes_and_tanner_load_no_scipy(tmp_path):
    """scipy is imported on first use: importing the CLI, generating a
    base, counting its hikes and building a Tanner code from a certificate
    load none of it."""
    cert = Path(__file__).parent / "fixtures" / "walk_cert_v1.json"
    code = (
        "import sys, abelift.cli as cli\n"
        "def loaded(): return sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"assert cli.main(['gen-base', '--kind', 'random', '--n', '16', "
        f"'--d', '3', '--out', {str(tmp_path / 'base.json')!r}]) == 0\n"
        f"assert cli.main(['hikes', 'count', '--graph', "
        f"{str(tmp_path / 'base.json')!r}, '--k', '3']) == 0\n"
        "print(loaded())\n"
        f"assert cli.main(['codes', 'tanner', '--cert', {str(cert)!r}, "
        f"'--alist', {str(tmp_path / 'code.alist')!r}, "
        f"'--out', {str(tmp_path / 'tanner.json')!r}]) == 0\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert [line for line in proc.stdout.split("\n")
            if line.startswith("[")] == ["[]"] * 3


# the one scipy module a library path loads: radius_reaches's LAPACK
# extension, loaded from its file.  CPython registers a single-phase
# extension module in sys.modules under the name it is loaded as.
_LAPACK = "scipy.linalg._flapack"


def _scipy_loaded_after(code: str) -> list[str]:
    """Every scipy module a fresh interpreter holds after running code."""
    code += ("\nimport sys\nprint(*sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split("\n")[-2].split()


_SMALL_LIFT = (
    "import numpy as np\n"
    "from abelift import graphs, search, spectral\n"
    "from abelift.groups import AbelianGroup\n"
    "base = graphs.random_regular(12, 3, seed=4)\n"
    "group = AbelianGroup.cyclic(4)\n"
    "sg = graphs.Signing.random(base, group, seed=5)\n")


def test_union_check_search_and_lift_import_no_scipy_package():
    """An honest complex union check is certified by nearest neighbours and
    labelled by the numpy union-find, as are a search's lifts, lift's
    connectivity test and component counts; the search's Cholesky tests
    load the LAPACK extension alone, and no scipy package is imported."""
    code = _SMALL_LIFT + (
        "rep = spectral.spectrum_union_check(sg, "
        "include_nonbacktracking=True)\n"
        "assert rep.passed and rep.nb_distance is not None\n"
        "rows = np.random.default_rng(0).integers(4, size=(5, base.m))\n"
        "search.derandomized_lift_search(base, group, rows, "
        "crosscheck_every=2)\n"
        "lifted = graphs.lift(base, graphs.Signing(base, group, rows[:1].T))\n"
        "assert graphs.component_count(lifted) == 1\n")
    assert _scipy_loaded_after(code) == [_LAPACK]


def test_a_forged_spectrum_loads_no_scipy():
    code = _SMALL_LIFT + (
        "G = graphs.lift(base, sg, allow_disconnected=True)\n"
        "nb = spectral.ihara_bass_spectrum(spectral.adjacency_spectrum(G), "
        "3, G.m - G.n)\n"
        "union = spectral.character_spectra(sg, np.arange(4), "
        "'nonbacktracking').ravel()\n"
        "assert spectral.multiset_max_distance(union, nb + 0.5) >= 0.5\n")
    assert _scipy_loaded_after(code) == []


def test_searches_verify_union_check_and_tanner_import_no_scipy_package(
        tmp_path):
    """Both searches, a verify, a union check and `codes tanner` load only
    the LAPACK extension; a later import of scipy.linalg hands out the
    same potrf objects, and a search repeated after it writes the same
    certificate."""
    base, cert = tmp_path / "base.json", tmp_path / "cert.json"
    code = _SMALL_LIFT + (
        "from abelift import cli, serial\n"
        "rows = np.random.default_rng(0).integers(4, size=(20, base.m))\n"
        "first = search.derandomized_lift_search(base, group, rows)\n"
        f"assert cli.main(['gen-base', '--kind', 'random', '--n', '16', "
        f"'--d', '3', '--seed', '1', '--out', {str(base)!r}]) == 0\n"
        f"assert cli.main(['lift-search', '--graph', {str(base)!r}, "
        f"'--mode', 'walk', '--ell', '8', '--seeds', '8', "
        f"'--out', {str(cert)!r}]) == 0\n"
        f"walk = serial.load_json({str(cert)!r})['certificate']\n"
        "assert search.verify_certificate(walk)['ok']\n"
        "assert search.verify_certificate(first.certificate)['ok']\n"
        "assert spectral.spectrum_union_check(sg).passed\n"
        f"assert cli.main(['codes', 'tanner', '--cert', {str(cert)!r}, "
        f"'--out', {str(tmp_path / 'tanner.json')!r}]) == 0\n"
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        "\nfrom scipy.linalg import get_lapack_funcs\n"
        "for dtype in (np.float64, np.complex128):\n"
        "    assert (get_lapack_funcs(('potrf',), dtype=dtype)[0]\n"
        "            is spectral._potrf(np.dtype(dtype)))\n"
        "again = search.derandomized_lift_search(base, group, rows)\n"
        "assert again.certificate == first.certificate\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[-2].split() == [_LAPACK]
