"""The ISP pipeline: an ordered chain of stages with tap points.

``ISPPipeline.process_batch(raws)`` runs a stack of
:class:`~repro.imaging.image.RawImage` captures through every stage on a
leading batch axis and returns the finished
:class:`~repro.imaging.image.ImageBuffer` per item; ``process(raw)`` is
the same pass over a batch of one. ``process_with_taps`` also returns the
intermediate image after each stage, which the tests and the ablation
benchmarks use to attribute instability to individual stages (in the
spirit of Buckler et al. 2017, which the paper builds on).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..imaging.image import ImageBuffer, RawImage
from .stages import BatchISPState, BlackLevelCorrection, Demosaic, ISPStage

__all__ = ["ISPPipeline"]


class ISPPipeline:
    """An ordered, validated chain of ISP stages."""

    def __init__(self, stages: Sequence[ISPStage], name: str = "custom") -> None:
        stages = list(stages)
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        demosaic_positions = [
            i for i, s in enumerate(stages) if isinstance(s, Demosaic)
        ]
        if len(demosaic_positions) != 1:
            raise ValueError("pipeline must contain exactly one Demosaic stage")
        black_positions = [
            i for i, s in enumerate(stages) if isinstance(s, BlackLevelCorrection)
        ]
        if black_positions and black_positions[0] > demosaic_positions[0]:
            raise ValueError("BlackLevelCorrection must precede Demosaic")
        self.stages: List[ISPStage] = stages
        self.name = name

    def process(self, raw: RawImage) -> ImageBuffer:
        """Develop one raw capture (a batch of one)."""
        return self.process_batch([raw])[0]

    def process_batch(self, raws: Sequence[RawImage]) -> List[ImageBuffer]:
        """Develop a batch of raw captures in one vectorized pass.

        Every stage vectorizes over the leading batch axis with per-item
        arithmetic, so item ``i`` of the result is bit-identical to
        ``process(raws[i])``. Each stage executes inside its own
        ``isp.<stage>`` tracing span (annotated with the pipeline name)
        when observability is active, so traces attribute develop time
        stage by stage.
        """
        raws = list(raws)
        if not raws:
            return []
        return self._develop(raws)

    def process_with_taps(self, raw: RawImage) -> Tuple[ImageBuffer, Dict[str, ImageBuffer]]:
        """Run the pipeline, also returning the image after each RGB stage."""
        taps: Dict[str, ImageBuffer] = {}
        return self._develop([raw], taps)[0], taps

    def _develop(
        self, raws: List[RawImage], taps: Optional[Dict[str, ImageBuffer]] = None
    ) -> List[ImageBuffer]:
        with obs.span("isp.process_batch", pipeline=self.name, items=len(raws)):
            state = BatchISPState(
                raws=raws,
                mosaic=np.stack([raw.mosaic.astype("float32") for raw in raws]),
            )
            for i, stage in enumerate(self.stages):
                with obs.span(f"isp.{stage.name}", pipeline=self.name):
                    state = stage.process_batch(state)
                if taps is not None and state.rgb is not None:
                    tap = ImageBuffer(state.rgb[0].copy()).clipped()
                    taps[f"{i:02d}:{stage.name}"] = tap
            rgb = state.require_rgb()
            return [ImageBuffer(rgb[i]).clipped() for i in range(len(raws))]

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " -> ".join(self.stage_names())
        return f"ISPPipeline({self.name!r}: {inner})"
