"""The public surface is pinned: a new knob or subcommand needs an edit here."""

import argparse
import dataclasses
import importlib
import inspect

from dqwitness.cli import build_parser

MODULES = ("algebra", "dynamics", "thermal", "bounds", "measurement", "cli")

# Public keyword parameters with defaults, `**kwargs` included: every public
# function, public method and dataclass field of the six modules.
KNOBS = {
    "algebra.OperatorMatrix.label",
    "algebra.SectorBasis.coherence_orders",
    "algebra.SectorBasis.elements",
    "algebra.SectorBasis.labels",
    "bounds.f_class_max.gate_status",
    "cli.main.argv",
    "cli.run_witness.cv_threshold",
    "cli.run_witness.destination",
    "cli.run_witness.dev_threshold",
    "dynamics.Trajectory.n_levels",
    "dynamics.Trajectory.truncation_tail",
    "measurement.MeasurementSeries.mt_ratio",
    "measurement.MeasurementSeries.skipped",
    "measurement.stability_gate.cv_threshold",
    "measurement.stability_gate.dev_threshold",
    "thermal.JumpTerm.channel",
    "thermal.ceiling_scan.tolerance",
    "thermal.default_thermal_model.base_rate",
}


def _defaulted(fn) -> list[str]:
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty or p.kind is p.VAR_KEYWORD
    ]


def _public_knobs() -> set[str]:
    knobs = set()
    for short in MODULES:
        module = importlib.import_module(f"dqwitness.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                knobs.update(f"{short}.{name}.{p}" for p in _defaulted(obj))
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    knobs.update(
                        f"{short}.{name}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.init
                        and (
                            f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING
                        )
                    )
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        knobs.update(f"{short}.{name}.{attr}.{p}" for p in _defaulted(member))
    return knobs


def test_public_keyword_parameters_with_defaults():
    assert _public_knobs() == KNOBS
    assert len(KNOBS) == 18


def test_subcommands():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == {"bounds", "witness", "figure"}
