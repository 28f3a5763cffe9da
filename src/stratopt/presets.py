"""Frozen experiment presets reproducing the reference figures.

The pairings are chosen so each preset exhibits its intended learning
behavior under the chain-rule gradient:

* fig6-cone / fig6-hyp: initialization and target on different nappes with
  the initial ray pointing (nearly) opposite the target ray.  On the cone
  the angle can only rotate at a rate proportional to |xi|, so the iterate
  is captured by the apex and the loss plateaus at the apex loss; on the
  hyperboloid the neck keeps the angular direction alive and the run crosses.
* fig5a: one target, three fixed starts on the same nappe; the start with
  its angle nearly opposite must swing past the apex (slow on the cone,
  quick on the hyperboloid), the others converge directly.
* fig5b-gd / fig5b-ngd: seeded random-initialization sweeps on both
  surfaces for aggregate mean/median loss curves.
* fig1-cusp: tangential gradient field along the cusp curve and two of its
  smooth deformation levels, including the undefined entry at the singular
  point itself.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .config import ExperimentSpec, InitDistribution
from .model import ChartPoint

_FIG5B_GD = ExperimentSpec(
    name="fig5b-gd",
    model="both",
    eps=0.05,
    method="gd",
    step_size=0.02,
    max_steps=5_000,
    loss_tol=1e-8,
    record_every=10,
    init=InitDistribution(
        xi_range=(0.25, 2.0),
        theta_range=(-math.pi, math.pi),
        count=20,
        seed=20260505,
    ),
    target=ChartPoint(1.0, 0.0),
    target_surface="cone",
)
_FIG6_CONE = ExperimentSpec(
    name="fig6-cone",
    model="cone",
    eps=0.0,
    method="gd",
    step_size=0.05,
    max_steps=50_000,
    record_every=10,
    init=(ChartPoint(1.0, 3.13),),
    target=ChartPoint(-1.0, 0.0),
    target_surface="cone",  # the cone point the cone run can never rotate to reach
)

# name -> frozen spec, in the order the presets are listed and reproduced
PRESETS = {spec.name: spec for spec in (
    ExperimentSpec(
        name="fig1-cusp",
        model="cusp",
        eps=0.2,
        target=ChartPoint(1.0, -1.0),  # ambient (x1, x2) target on the curve
    ),
    ExperimentSpec(
        name="fig5a",
        model="both",
        eps=0.05,
        method="gd",
        step_size=0.01,
        max_steps=50_000,
        record_every=1,
        init=(
            ChartPoint(1.0, 3.04),   # swings past the apex
            ChartPoint(1.8, 0.8),    # stays far from the apex
            ChartPoint(0.6, -1.2),
        ),
        target=ChartPoint(1.0, 0.0),
        target_surface="cone",
    ),
    _FIG5B_GD,
    replace(_FIG5B_GD, name="fig5b-ngd", method="ngd"),
    _FIG6_CONE,
    # the resolved surface carries its own true parameterization
    replace(_FIG6_CONE, name="fig6-hyp", model="hyperboloid", eps=0.05, target_surface="model"),
)}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> ExperimentSpec:
    """The frozen spec for one of the shipped experiment presets."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known presets: "
                       f"{', '.join(PRESET_NAMES)}") from None
