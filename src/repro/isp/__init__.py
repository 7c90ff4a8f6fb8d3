"""Image signal processor: staged raw-to-RGB pipelines and vendor profiles."""

from .pipeline import ISPPipeline
from .profiles import available_isps, build_isp
from .stages import (
    BlackLevelCorrection,
    ColorCorrection,
    Demosaic,
    Denoise,
    GammaEncode,
    ISPStage,
    Resize,
    Sharpen,
    ToneMap,
    WhiteBalance,
)

__all__ = [
    "BlackLevelCorrection",
    "ColorCorrection",
    "Demosaic",
    "Denoise",
    "GammaEncode",
    "ISPPipeline",
    "ISPStage",
    "Resize",
    "Sharpen",
    "ToneMap",
    "WhiteBalance",
    "available_isps",
    "build_isp",
]
