"""Procedural renderers for the dataset's object classes.

The paper photographs five ImageNet classes — water bottle, beer bottle,
wine bottle, purse, backpack — chosen in part because they are mutually
confusable (three bottle silhouettes; two soft-goods blobs), which is what
puts a meaningful share of images near the model's decision boundary. The
renderers here reproduce that structure: every object is sampled with
intra-class variation (size, hue, label geometry, accessories) from a
seeded RNG, and the class prototypes deliberately overlap — e.g. a green
glass beer bottle vs. a green glass wine bottle differ mainly in shoulder
slope and neck length.

Three distractor classes (mug, vase, lampshade) widen the label space so
"clearly incorrect" predictions exist, mirroring how MobileNetV2's
1000-class head lets a water bottle be misread as "bubble" (paper Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .primitives import (
    Canvas,
    fill_annulus_arc,
    fill_ellipse,
    fill_polygon,
    fill_rect,
    fill_rounded_rect,
)

__all__ = [
    "TARGET_CLASSES",
    "DISTRACTOR_CLASSES",
    "ALL_CLASSES",
    "ObjectSpec",
    "sample_object",
    "render_object",
]

#: The paper's five evaluation classes (§3.1).
TARGET_CLASSES = ("water_bottle", "beer_bottle", "wine_bottle", "purse", "backpack")
#: Extra classes so the classifier has "clearly incorrect" labels available.
DISTRACTOR_CLASSES = ("mug", "vase", "lampshade")
ALL_CLASSES = TARGET_CLASSES + DISTRACTOR_CLASSES


@dataclass(frozen=True)
class ObjectSpec:
    """A fully-determined object instance: class plus sampled parameters.

    Repeat photos of the same physical object reuse one spec; a new spec is
    a new object. ``params`` is everything :func:`render_object` needs, so
    specs are serializable and rendering is deterministic.
    """

    class_name: str
    object_id: int
    params: Dict[str, float] = field(default_factory=dict)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _choice(rng: np.random.Generator, options) -> float:
    return options[int(rng.integers(len(options)))]


# ----------------------------------------------------------------------
# Per-class samplers: draw the intra-class variation parameters.
# ----------------------------------------------------------------------
_GLASS_TINTS = {
    # Glass body colors shared (confusably) between the bottle classes.
    "brown": (0.42, 0.23, 0.08),
    "green": (0.13, 0.32, 0.12),
    "dark_green": (0.08, 0.20, 0.09),
    "clear_blue": (0.62, 0.74, 0.84),
    "clear": (0.78, 0.82, 0.84),
    "dark_red": (0.25, 0.07, 0.09),
}


def _sample_water_bottle(rng: np.random.Generator) -> Dict[str, float]:
    tint = _choice(rng, ["clear_blue", "clear", "green", "dark_green"])
    return {
        "body_width": _uniform(rng, 0.18, 0.30),
        "body_top": _uniform(rng, 0.24, 0.36),
        "neck_width": _uniform(rng, 0.07, 0.15),
        "cap_height": _uniform(rng, 0.04, 0.07),
        "tint_r": _GLASS_TINTS[tint][0],
        "tint_g": _GLASS_TINTS[tint][1],
        "tint_b": _GLASS_TINTS[tint][2],
        "label_y": _uniform(rng, 0.52, 0.62),
        "label_h": _uniform(rng, 0.10, 0.16),
        "label_bright": _uniform(rng, 0.75, 0.95),
        "cap_hue": _uniform(rng, 0.0, 1.0),
        "highlight": _uniform(rng, 0.10, 0.35),
        "tapered": float(rng.random() < 0.55),
    }


def _sample_beer_bottle(rng: np.random.Generator) -> Dict[str, float]:
    tint = _choice(rng, ["brown", "brown", "green", "dark_green"])
    return {
        "body_width": _uniform(rng, 0.18, 0.27),
        "shoulder_y": _uniform(rng, 0.31, 0.45),
        "neck_width": _uniform(rng, 0.06, 0.10),
        "neck_top": _uniform(rng, 0.08, 0.17),
        "tint_r": _GLASS_TINTS[tint][0],
        "tint_g": _GLASS_TINTS[tint][1],
        "tint_b": _GLASS_TINTS[tint][2],
        "label_y": _uniform(rng, 0.55, 0.66),
        "label_h": _uniform(rng, 0.12, 0.18),
        "label_bright": _uniform(rng, 0.70, 0.95),
        "has_neck_label": float(rng.random() < 0.5),
        "foil_hue": _uniform(rng, 0.0, 1.0),
        "has_foil": float(rng.random() < 0.25),
    }


def _sample_wine_bottle(rng: np.random.Generator) -> Dict[str, float]:
    tint = _choice(rng, ["dark_green", "dark_green", "dark_red", "green", "brown"])
    return {
        "body_width": _uniform(rng, 0.19, 0.27),
        "shoulder_y": _uniform(rng, 0.31, 0.45),
        "neck_width": _uniform(rng, 0.06, 0.10),
        "neck_top": _uniform(rng, 0.08, 0.17),
        "tint_r": _GLASS_TINTS[tint][0],
        "tint_g": _GLASS_TINTS[tint][1],
        "tint_b": _GLASS_TINTS[tint][2],
        "label_y": _uniform(rng, 0.55, 0.67),
        "label_h": _uniform(rng, 0.12, 0.19),
        "label_bright": _uniform(rng, 0.72, 0.95),
        "foil_hue": _uniform(rng, 0.0, 1.0),
        "has_foil": float(rng.random() > 0.25),
    }


def _sample_purse(rng: np.random.Generator) -> Dict[str, float]:
    hue = _choice(rng, [0.0, 0.05, 0.3, 0.55, 0.62, 0.85])
    return {
        "body_width": _uniform(rng, 0.38, 0.56),
        "body_height": _uniform(rng, 0.28, 0.48),
        "taper": _uniform(rng, 0.02, 0.14),
        "hue": hue,
        "sat": _uniform(rng, 0.30, 0.80),
        "val": _uniform(rng, 0.25, 0.70),
        "handle_r": _uniform(rng, 0.12, 0.18),
        "has_flap": float(rng.random() < 0.7),
        "clasp_bright": _uniform(rng, 0.7, 0.95),
    }


def _sample_backpack(rng: np.random.Generator) -> Dict[str, float]:
    hue = _choice(rng, [0.0, 0.05, 0.3, 0.55, 0.62, 0.85])
    return {
        "body_width": _uniform(rng, 0.38, 0.56),
        "body_height": _uniform(rng, 0.38, 0.60),
        "corner_r": _uniform(rng, 0.04, 0.14),
        "hue": hue,
        "sat": _uniform(rng, 0.30, 0.80),
        "val": _uniform(rng, 0.25, 0.70),
        "pocket_scale": _uniform(rng, 0.45, 0.65),
        "has_straps": float(rng.random() < 0.6),
        "zipper_bright": _uniform(rng, 0.6, 0.9),
    }


def _sample_mug(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "body_width": _uniform(rng, 0.30, 0.40),
        "body_height": _uniform(rng, 0.26, 0.34),
        "hue": _uniform(rng, 0.0, 1.0),
        "sat": _uniform(rng, 0.3, 0.8),
        "val": _uniform(rng, 0.4, 0.9),
        "handle_r": _uniform(rng, 0.08, 0.12),
    }


def _sample_vase(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "waist": _uniform(rng, 0.08, 0.14),
        "belly": _uniform(rng, 0.22, 0.32),
        "hue": _uniform(rng, 0.0, 1.0),
        "sat": _uniform(rng, 0.2, 0.6),
        "val": _uniform(rng, 0.3, 0.8),
    }


def _sample_lampshade(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "top_width": _uniform(rng, 0.14, 0.22),
        "bottom_width": _uniform(rng, 0.36, 0.50),
        "height": _uniform(rng, 0.30, 0.42),
        "hue": _uniform(rng, 0.05, 0.16),
        "sat": _uniform(rng, 0.15, 0.45),
        "val": _uniform(rng, 0.6, 0.95),
    }


_SAMPLERS = {
    "water_bottle": _sample_water_bottle,
    "beer_bottle": _sample_beer_bottle,
    "wine_bottle": _sample_wine_bottle,
    "purse": _sample_purse,
    "backpack": _sample_backpack,
    "mug": _sample_mug,
    "vase": _sample_vase,
    "lampshade": _sample_lampshade,
}


def sample_object(class_name: str, object_id: int, rng: np.random.Generator) -> ObjectSpec:
    """Sample one object instance of the given class."""
    try:
        sampler = _SAMPLERS[class_name]
    except KeyError:
        raise ValueError(
            f"unknown class {class_name!r}; expected one of {ALL_CLASSES}"
        ) from None
    return ObjectSpec(class_name=class_name, object_id=object_id, params=sampler(rng))


# ----------------------------------------------------------------------
# Renderers. Each draws its object roughly centred, occupying the middle
# of the canvas, in normalized coordinates.
# ----------------------------------------------------------------------
def _hsv_color(hue: float, sat: float, val: float):
    from ..imaging.color import hsv_to_rgb

    rgb = hsv_to_rgb(np.array([[[hue, sat, val]]], dtype=np.float32))[0, 0]
    return (float(rgb[0]), float(rgb[1]), float(rgb[2]))


def _render_water_bottle(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.5
    tint = (p["tint_r"], p["tint_g"], p["tint_b"])
    half = p["body_width"] / 2
    nhalf = p["neck_width"] / 2
    if p.get("tapered", 0.0):
        # Sport-bottle variant: sloped shoulder, confusable with beer/wine.
        fill_rect(canvas, cx - half, p["body_top"] + 0.08, cx + half, 0.88, tint)
        fill_polygon(
            canvas,
            [
                (cx - half, p["body_top"] + 0.08),
                (cx + half, p["body_top"] + 0.08),
                (cx + nhalf, p["body_top"] - 0.04),
                (cx - nhalf, p["body_top"] - 0.04),
            ],
            tint,
        )
    else:
        # Body with rounded shoulders.
        fill_rounded_rect(canvas, cx - half, p["body_top"], cx + half, 0.88, 0.05, tint)
    # Neck.
    fill_rect(canvas, cx - nhalf, p["body_top"] - 0.08, cx + nhalf, p["body_top"] + 0.02, tint)
    # Cap.
    cap = _hsv_color(p["cap_hue"], 0.6, 0.7)
    fill_rect(
        canvas, cx - nhalf - 0.01, p["body_top"] - 0.08 - p["cap_height"],
        cx + nhalf + 0.01, p["body_top"] - 0.08, cap,
    )
    # Label band.
    label = (p["label_bright"], p["label_bright"], p["label_bright"] * 0.96)
    fill_rect(canvas, cx - half, p["label_y"], cx + half, p["label_y"] + p["label_h"], label)
    # Specular highlight strip on the left of the body.
    fill_rect(
        canvas, cx - half + 0.02, p["body_top"] + 0.04, cx - half + 0.05, 0.84,
        (1.0, 1.0, 1.0), alpha=p["highlight"],
    )


def _render_tapered_bottle(canvas: Canvas, p: Dict[str, float], foil: bool) -> None:
    """Shared geometry for beer and wine bottles: body, shoulder, neck."""
    cx = 0.5
    tint = (p["tint_r"], p["tint_g"], p["tint_b"])
    half = p["body_width"] / 2
    nhalf = p["neck_width"] / 2
    shoulder = p["shoulder_y"]
    neck_top = p["neck_top"]
    # Body below the shoulder.
    fill_rect(canvas, cx - half, shoulder, cx + half, 0.9, tint)
    # Shoulder taper to the neck.
    fill_polygon(
        canvas,
        [
            (cx - half, shoulder),
            (cx + half, shoulder),
            (cx + nhalf, shoulder - 0.10),
            (cx - nhalf, shoulder - 0.10),
        ],
        tint,
    )
    # Neck.
    fill_rect(canvas, cx - nhalf, neck_top, cx + nhalf, shoulder - 0.09, tint)
    if foil:
        color = _hsv_color(p["foil_hue"], 0.5, 0.55)
        fill_rect(canvas, cx - nhalf - 0.005, neck_top, cx + nhalf + 0.005, neck_top + 0.06, color)
    else:
        # Crown cap.
        fill_rect(canvas, cx - nhalf - 0.012, neck_top - 0.02, cx + nhalf + 0.012, neck_top + 0.012, (0.75, 0.72, 0.55))
    # Main label.
    label = (p["label_bright"], p["label_bright"] * 0.97, p["label_bright"] * 0.9)
    fill_rect(canvas, cx - half, p["label_y"], cx + half, p["label_y"] + p["label_h"], label)


def _render_beer_bottle(canvas: Canvas, p: Dict[str, float]) -> None:
    _render_tapered_bottle(canvas, p, foil=bool(p.get("has_foil", 0.0)))
    if p["has_neck_label"]:
        cx = 0.5
        nhalf = p["neck_width"] / 2
        fill_rect(
            canvas, cx - nhalf - 0.008, p["shoulder_y"] - 0.20,
            cx + nhalf + 0.008, p["shoulder_y"] - 0.14,
            (p["label_bright"], p["label_bright"] * 0.9, p["label_bright"] * 0.8),
        )


def _render_wine_bottle(canvas: Canvas, p: Dict[str, float]) -> None:
    _render_tapered_bottle(canvas, p, foil=bool(p.get("has_foil", 1.0)))


def _render_purse(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.5
    color = _hsv_color(p["hue"], p["sat"], p["val"])
    half = p["body_width"] / 2
    top = 0.85 - p["body_height"]
    # Tapered body: wider at the bottom.
    fill_polygon(
        canvas,
        [
            (cx - half + p["taper"], top),
            (cx + half - p["taper"], top),
            (cx + half, 0.85),
            (cx - half, 0.85),
        ],
        color,
    )
    # Handle arc above.
    fill_annulus_arc(
        canvas, cx, top + 0.01, p["handle_r"], p["handle_r"] - 0.025, color
    )
    if p["has_flap"]:
        flap = _hsv_color(p["hue"], p["sat"], max(p["val"] - 0.15, 0.05))
        fill_polygon(
            canvas,
            [
                (cx - half + p["taper"], top),
                (cx + half - p["taper"], top),
                (cx + half - p["taper"] - 0.02, top + 0.12),
                (cx - half + p["taper"] + 0.02, top + 0.12),
            ],
            flap,
        )
    # Clasp.
    b = p["clasp_bright"]
    fill_ellipse(canvas, cx, top + 0.13, 0.02, 0.015, (b, b * 0.9, b * 0.5))


def _render_backpack(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.5
    color = _hsv_color(p["hue"], p["sat"], p["val"])
    half = p["body_width"] / 2
    top = 0.88 - p["body_height"]
    fill_rounded_rect(canvas, cx - half, top, cx + half, 0.88, p["corner_r"], color)
    # Front pocket, a darker inset.
    pocket = _hsv_color(p["hue"], p["sat"], max(p["val"] - 0.12, 0.05))
    pw = half * p["pocket_scale"]
    fill_rounded_rect(canvas, cx - pw, 0.88 - p["body_height"] * 0.45, cx + pw, 0.84, 0.04, pocket)
    # Grab handle on top.
    fill_annulus_arc(canvas, cx, top + 0.005, 0.06, 0.035, pocket)
    if p["has_straps"]:
        strap = _hsv_color(p["hue"], p["sat"], max(p["val"] - 0.2, 0.05))
        fill_rect(canvas, cx - half + 0.03, top + 0.05, cx - half + 0.09, 0.82, strap)
        fill_rect(canvas, cx + half - 0.09, top + 0.05, cx + half - 0.03, 0.82, strap)
    # Zipper line.
    z = p["zipper_bright"]
    fill_rect(canvas, cx - pw, 0.88 - p["body_height"] * 0.45, cx + pw, 0.88 - p["body_height"] * 0.45 + 0.008, (z, z, z))


def _render_mug(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.47
    color = _hsv_color(p["hue"], p["sat"], p["val"])
    half = p["body_width"] / 2
    top = 0.8 - p["body_height"]
    fill_rounded_rect(canvas, cx - half, top, cx + half, 0.8, 0.03, color)
    # Handle on the right.
    fill_annulus_arc(
        canvas, cx + half, (top + 0.8) / 2, p["handle_r"], p["handle_r"] - 0.03,
        color, upper_only=False,
    )


def _render_vase(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.5
    color = _hsv_color(p["hue"], p["sat"], p["val"])
    # Flared lip, narrow waist, wide belly: stacked shapes.
    fill_polygon(
        canvas,
        [(cx - 0.10, 0.22), (cx + 0.10, 0.22), (cx + p["waist"], 0.34), (cx - p["waist"], 0.34)],
        color,
    )
    fill_rect(canvas, cx - p["waist"], 0.34, cx + p["waist"], 0.45, color)
    fill_ellipse(canvas, cx, 0.62, p["belly"], 0.22, color)


def _render_lampshade(canvas: Canvas, p: Dict[str, float]) -> None:
    cx = 0.5
    color = _hsv_color(p["hue"], p["sat"], p["val"])
    top = 0.3
    fill_polygon(
        canvas,
        [
            (cx - p["top_width"] / 2, top),
            (cx + p["top_width"] / 2, top),
            (cx + p["bottom_width"] / 2, top + p["height"]),
            (cx - p["bottom_width"] / 2, top + p["height"]),
        ],
        color,
    )
    # Stand below.
    fill_rect(canvas, cx - 0.012, top + p["height"], cx + 0.012, 0.85, (0.35, 0.3, 0.28))


_RENDERERS = {
    "water_bottle": _render_water_bottle,
    "beer_bottle": _render_beer_bottle,
    "wine_bottle": _render_wine_bottle,
    "purse": _render_purse,
    "backpack": _render_backpack,
    "mug": _render_mug,
    "vase": _render_vase,
    "lampshade": _render_lampshade,
}


def render_object(canvas: Canvas, spec: ObjectSpec) -> None:
    """Draw ``spec`` onto ``canvas`` (composited over what's there)."""
    try:
        renderer = _RENDERERS[spec.class_name]
    except KeyError:
        raise ValueError(f"no renderer for class {spec.class_name!r}") from None
    renderer(canvas, spec.params)


def class_index(class_name: str) -> int:
    """Stable integer label for a class name."""
    return ALL_CLASSES.index(class_name)
