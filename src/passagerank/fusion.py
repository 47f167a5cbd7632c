"""The fusion layer: softmax-gated combination of per-filter scores.

Given a candidate's per-filter score vector r and feature vector h, the
final ranking score is

    f = tanh(r_norm . phi(h_norm) + b)     phi(h) = softmax(W @ h_norm)

where W (alpha x beta) and b are the learned parameters and both inputs
pass through affine normalizations fitted on training data. phi is a
strictly positive probability simplex over the filters, so it reads as
"how much each passage granularity should count for this candidate".

Raw per-filter scores are large-magnitude log-likelihoods; feeding them
to tanh directly would saturate it at +-1 and kill every gradient. The
per-filter z-normalization is affine with positive scale, so it never
changes a filter's internal ordering.

Model files are versioned JSON and round-trip bit-exactly (floats are
serialized with shortest-repr, which Python parses back to the same
double).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._accel import FilterSpec, parse_filter_label

MODEL_FORMAT = "passagerank-fusion"
MODEL_VERSION = 1

_PHI_FLOOR = 1e-300  # keeps phi strictly positive when exp() underflows
_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class AffineNorm:
    """Per-dimension z-normalization with the std floor already applied."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    @property
    def size(self) -> int:
        return int(self.mean.shape[0])

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "AffineNorm":
        """Fit on training rows; constant dimensions get the std floor."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("normalization needs a non-empty 2-D matrix")
        return cls(m.mean(axis=0), np.maximum(m.std(axis=0), _STD_FLOOR))


def json_numbers(value, key: str, kind: type | tuple[type, ...] = (int, float)):
    """``value``, a JSON number of ``kind`` (an int or a float by default;
    never a bool or a string) or nested lists of them."""
    for x in np.array(value, dtype=object).flat:
        if isinstance(x, bool) or not isinstance(x, kind):
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{key}: expected {noun}, got {x!r}")
    return value


class FusionModel:
    """Parameters + normalizations + the configuration they were fitted to."""

    def __init__(
        self,
        filters: Sequence[FilterSpec],
        feature_names: Sequence[str],
        W: np.ndarray,
        b: float,
        score_norm: AffineNorm,
        feature_norm: AffineNorm,
        meta: dict | None = None,
    ):
        self.filters = tuple(filters)
        self.feature_names = tuple(feature_names)
        self.W = np.ascontiguousarray(W, dtype=np.float64)
        self.b = float(b)
        self.score_norm = score_norm
        self.feature_norm = feature_norm
        self.meta = dict(meta or {})
        alpha, beta = len(self.filters), len(self.feature_names)
        if self.W.shape != (alpha, beta):
            raise ValueError(
                f"W has shape {self.W.shape}, expected ({alpha}, {beta})"
            )
        shapes = [v.shape for n in (score_norm, feature_norm) for v in (n.mean, n.std)]
        if shapes != [(alpha,), (alpha,), (beta,), (beta,)]:
            raise ValueError("normalization record dimensions do not match model")
        if not (np.isfinite(self.W).all() and math.isfinite(self.b)):
            raise ValueError("model parameters must be finite")
        for kind, norm in (("score", score_norm), ("feature", feature_norm)):
            if not np.isfinite(norm.mean).all():
                raise ValueError(f"{kind} normalization means must be finite")
            if not (np.isfinite(norm.std) & (norm.std >= _STD_FLOOR)).all():
                raise ValueError(f"{kind} normalization stds must be finite "
                                 f"and >= {_STD_FLOOR:g}")

    # -- inference ----------------------------------------------------------

    @staticmethod
    def _normalized(x: np.ndarray, norm: AffineNorm, kind: str, dim: str) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != norm.size:
            raise ValueError(f"{kind} dimension {x.shape[-1]} does not match "
                             f"model {dim} {norm.size}")
        if not np.isfinite(x).all():
            raise ValueError(f"NaN or infinite {kind} input")
        return norm.apply(x)

    def linear_many(self, R_raw: np.ndarray, H_raw: np.ndarray) -> np.ndarray:
        """Pre-tanh scores r_norm . phi + b.

        tanh is strictly monotone, so ranking by the linear score equals
        ranking by the final score in exact arithmetic; in floats it is
        strictly better, because tanh saturates to exactly +-1.0 beyond
        |x| ~ 19 and would collapse distinct large-magnitude scores into
        ties. Rankers sort by this value.
        """
        R = self._normalized(R_raw, self.score_norm, "score", "alpha")
        H = self._normalized(H_raw, self.feature_norm, "feature", "beta")
        return linear_rows(self.W, self.b, R, H)

    def weights_many(self, H_raw: np.ndarray) -> np.ndarray:
        """phi rows for a batch of raw feature vectors."""
        H = self._normalized(H_raw, self.feature_norm, "feature", "beta")
        return softmax_rows(H @ self.W.T)

    # -- persistence ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "filters": [f.label for f in self.filters],
            "feature_names": list(self.feature_names),
            "score_norm": {
                "mean": self.score_norm.mean.tolist(),
                "std": self.score_norm.std.tolist(),
            },
            "feature_norm": {
                "mean": self.feature_norm.mean.tolist(),
                "std": self.feature_norm.std.tolist(),
            },
            "W": self.W.tolist(),
            "b": self.b,
            "meta": self.meta,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "FusionModel":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
            raise ValueError(f"cannot read model file {path}: {e}") from None
        if not isinstance(raw, dict) or raw.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path} is not a fusion model file")
        version = raw.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"model file {path}: unsupported model version "
                             f"{version!r}")

        def floats(key: str, part: str) -> np.ndarray:
            return np.array(json_numbers(raw[key][part], f"{key} {part}"),
                            dtype=np.float64)

        try:
            return cls(
                filters=[parse_filter_label(s) for s in raw["filters"]],
                feature_names=raw["feature_names"],
                W=np.array(json_numbers(raw["W"], "W"), dtype=np.float64),
                b=json_numbers(raw["b"], "b"),
                score_norm=AffineNorm(floats("score_norm", "mean"),
                                      floats("score_norm", "std")),
                feature_norm=AffineNorm(floats("feature_norm", "mean"),
                                        floats("feature_norm", "std")),
                meta=raw.get("meta", {}),
            )
        except KeyError as e:
            raise ValueError(f"model file {path} lacks key {e}") from None
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"model file {path}: {e}") from None

    def fingerprint(self) -> str:
        """Short hash of the configuration the parameters were fitted to."""
        payload = json.dumps(
            {
                "filters": [f.label for f in self.filters],
                "feature_names": list(self.feature_names),
                "meta": self.meta,
            },
            sort_keys=True,
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:10]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; strictly positive output.

    The floor only engages when a logit spread exceeds ~745 and exp()
    underflows to exactly 0; it perturbs each row sum by well under
    1e-12.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
    return np.maximum(out, _PHI_FLOOR)


def linear_rows(
    W: np.ndarray, b: float, R_norm: np.ndarray, H_norm: np.ndarray
) -> np.ndarray:
    """Pre-tanh scores r_norm . phi + b of already-normalized batches."""
    phi = softmax_rows(H_norm @ W.T)
    return (R_norm * phi).sum(axis=1) + b


def forward_parts(
    W: np.ndarray, b: float, R_norm: np.ndarray, H_norm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch forward pass plus the reusable gradient coefficients.

    Returns (scores, phi, C, dB) where for sample i:
      d score_i / d W = outer(C[i], H_norm[i])   with
      C[i] = (1 - s_i^2) * phi_i * (R_i - R_i . phi_i)
      d score_i / d b = dB[i] = 1 - s_i^2
    """
    phi = softmax_rows(H_norm @ W.T)
    rbar = (R_norm * phi).sum(axis=1)
    s = np.tanh(rbar + b)
    sech2 = 1.0 - s * s
    C = sech2[:, np.newaxis] * phi * (R_norm - rbar[:, np.newaxis])
    return s, phi, C, sech2


def report_weights(
    model: FusionModel, H_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-filter mean and std of phi over a batch of (q,d) feature rows."""
    H = np.asarray(H_raw, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] < 1:
        raise ValueError("weight report needs at least one feature row")
    phi = model.weights_many(H)
    return phi.mean(axis=0), phi.std(axis=0)
