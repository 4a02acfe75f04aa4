"""Names looked up at run time, by the benchmark tracer and by the CLI's
usage table, must resolve."""
from __future__ import annotations

import argparse
import importlib
import importlib.util
from pathlib import Path


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
