"""Serialisation of trained models.

In the paper the learned feature weights travel from the vendor's offline
training to the GPU through the compiler, which places them in constant
memory before a kernel launches.  Here the same hand-off is a small JSON
document: the training pipeline saves it, and the hardware inference engine
(or any example script) loads it without retraining.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.training import TrainedModel

_FORMAT_VERSION = 1


def model_to_dict(model: TrainedModel) -> Dict[str, Any]:
    """The JSON document of a trained model."""
    return {
        "format_version": _FORMAT_VERSION,
        "alpha_weights": list(model.alpha_weights),
        "beta_weights": list(model.beta_weights),
        "max_warps": model.max_warps,
        "feature_mask": model.feature_mask,
        "dispersion_n": model.dispersion_n,
        "dispersion_p": model.dispersion_p,
        "num_training_kernels": model.num_training_kernels,
        "metadata": model.metadata,
    }


def model_from_dict(payload: Dict[str, Any]) -> TrainedModel:
    """Rebuild a model from :func:`model_to_dict`'s document."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    return TrainedModel(
        alpha_weights=[float(w) for w in payload["alpha_weights"]],
        beta_weights=[float(w) for w in payload["beta_weights"]],
        max_warps=int(payload["max_warps"]),
        feature_mask=payload.get("feature_mask"),
        dispersion_n=float(payload.get("dispersion_n", 0.0)),
        dispersion_p=float(payload.get("dispersion_p", 0.0)),
        num_training_kernels=int(payload.get("num_training_kernels", 0)),
        metadata=dict(payload.get("metadata", {})),
    )


def save_model(model: TrainedModel, path: Union[str, Path]) -> Path:
    """Serialise a trained model to JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True))
    return path


def load_model(path: Union[str, Path]) -> TrainedModel:
    """Load a trained model previously written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
