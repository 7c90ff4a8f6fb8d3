"""The OS/processor experiment (paper §7, Table 5).

The paper side-steps cameras entirely for this axis: a fixed set of
image *files* is pushed to five phones with different SoCs via Firebase
Test Lab, an app decodes and classifies them on-device, and predictions
are compared. The only per-device code in the loop is the OS image
decoder and the inference hardware.

Our simulation mirrors that: :class:`FirebaseTestLab` builds a fixed
photo set once (the stand-in for the Caltech101 subset), then each
device profile decodes the same bytes with *its* OS decoder family and
runs the same model. The paper's findings emerge mechanistically —

* JPEG: the two vendor-decoder phones (Huawei, Xiaomi) produce pixel
  buffers with different content hashes than the mainline three, causing
  a small instability (paper: 0.64%);
* PNG: all five decode bit-identically, zero instability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..codecs.registry import get_codec
from ..core.instability import instability
from ..core.records import ExperimentResult, PredictionRecord
from ..devices.os_sim import content_hash
from ..devices.profiles import firebase_fleet
from ..devices.runtime import DeviceRuntime
from ..nn.model import Model
from ..scenes.objects import ALL_CLASSES
from .common import present, resolve_model

__all__ = ["FirebaseTestLab", "FirebaseOutcome", "build_photo_set"]


def build_photo_set(
    num_photos: int = 40,
    image_format: str = "jpeg",
    quality: int = 85,
    seed: int = 0,
) -> List[dict]:
    """Encode the fixed photo corpus once, off-device.

    Photos are rendered scenes passed through the screen (so they have
    photographic texture) and encoded by the *experimenter* with the
    reference encoder — every device receives byte-identical files. The
    §7 experiment and the fleet drift study share this corpus builder.
    """
    codec = get_codec(image_format)
    photos = []
    for shown in present(max(1, -(-num_photos // 5)), seed)[:num_photos]:
        img = shown.radiance
        if codec.default_quality is None:
            data = codec.encode(img)
        else:
            data = codec.encode(img, quality=quality)
        photos.append(
            {
                "bytes": data,
                "image_id": shown.image_id,
                "label": shown.item.label,
                "class_name": shown.item.class_name,
            }
        )
    return photos


@dataclass
class FirebaseOutcome:
    """Predictions plus the per-device decode hashes of §7."""

    result: ExperimentResult
    #: device -> list of content hashes, one per photo (decode diagnostics).
    hashes: Dict[str, List[str]]
    image_format: str

    def instability(self) -> float:
        return instability(self.result)

    def hash_groups(self) -> Dict[str, List[str]]:
        """Group devices whose decoded pixels are identical.

        Returns ``{representative_hash_signature: [device, ...]}`` — the
        paper found exactly two groups on JPEG and one on PNG.
        """
        groups: Dict[str, List[str]] = {}
        for device, hash_list in self.hashes.items():
            signature = "|".join(hash_list)
            groups.setdefault(signature, []).append(device)
        return {f"group{i}": sorted(devs) for i, devs in enumerate(groups.values())}


class FirebaseTestLab:
    """Run the fixed-photo-set experiment across a device fleet."""

    def __init__(self, model: Optional[Model] = None, seed: int = 0) -> None:
        self.devices = firebase_fleet()
        self.runtime = DeviceRuntime(resolve_model(model))
        self.seed = seed

    def run(
        self, num_photos: int = 40, image_format: str = "jpeg", quality: int = 85
    ) -> FirebaseOutcome:
        photos = build_photo_set(num_photos, image_format, quality, seed=self.seed)
        result = ExperimentResult([], name=f"firebase/{image_format}")
        hashes: Dict[str, List[str]] = {}
        for profile in self.devices:
            decoded = [profile.os_decoder.load(p["bytes"]) for p in photos]
            hashes[profile.name] = [content_hash(img) for img in decoded]
            predictions = self.runtime.predict(decoded)
            records = []
            for pred, photo in zip(predictions, photos):
                records.append(
                    PredictionRecord(
                        environment=profile.name,
                        image_id=photo["image_id"],
                        true_label=photo["label"],
                        predicted_label=pred.top1,
                        confidence=pred.confidence,
                        class_name=photo["class_name"],
                        ranking=pred.ranking,
                        metadata={
                            "probabilities": pred.probabilities,
                            "predicted_class": ALL_CLASSES[pred.top1],
                            "soc": profile.soc,
                        },
                    )
                )
            result.extend(records)
        return FirebaseOutcome(result=result, hashes=hashes, image_format=image_format)
