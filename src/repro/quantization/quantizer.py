"""Low-bit weight quantization used for profiling and the FMQ baseline.

Symmetric per-row (per-output-channel) integer quantization: each row of a
weight matrix is scaled into the representable integer range for the chosen
bit-width and rounded.  Dequantisation multiplies back by the per-row scale.

The key property the paper relies on (§4.1) is that a quantized model's
*routing decisions* closely track the full-precision model while its
*fine-tuning* behaviour degrades with accumulated precision error — both of
which emerge naturally from actually rounding the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


SUPPORTED_BITS = (2, 3, 4, 8)


@dataclass
class QuantizedArray:
    """A quantized weight matrix: integer codes plus per-row scales."""

    codes: np.ndarray
    scales: np.ndarray
    bits: int
    original_shape: tuple
    #: dtype of the source weights; dequantisation reconstructs in this dtype
    #: so quantizing a float32 model does not silently upcast it to float64
    dtype: str = "float64"

    def dequantize(self) -> np.ndarray:
        """Reconstruct the (lossy) floating-point weights in the source dtype."""
        values = (self.codes * self.scales[:, None]).reshape(self.original_shape)
        return values.astype(self.dtype, copy=False)

    @property
    def nbytes(self) -> float:
        """Storage footprint in bytes (codes packed at ``bits`` per value)."""
        return self.codes.size * self.bits / 8.0 + self.scales.size * 4.0


def quantize_array(weights: np.ndarray, bits: int) -> QuantizedArray:
    """Symmetric per-row quantization of a 2-D (or flattened) weight array."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bit width {bits}; supported: {SUPPORTED_BITS}")
    original_shape = weights.shape
    matrix = weights.reshape(original_shape[0], -1) if weights.ndim > 1 else weights.reshape(1, -1)
    qmax = 2 ** (bits - 1) - 1
    row_absmax = np.abs(matrix).max(axis=1)
    scales = row_absmax / qmax
    # guard the scale, not the row max: a subnormal row max underflows to 0
    scales = np.where(scales > 0, scales, 1.0)
    codes = np.clip(np.round(matrix / scales[:, None]), -qmax - 1, qmax).astype(np.int32)
    dtype = str(weights.dtype) if weights.dtype.kind == "f" else "float64"
    return QuantizedArray(codes=codes, scales=scales, bits=bits,
                          original_shape=original_shape, dtype=dtype)


def dequantize_array(quantized: QuantizedArray) -> np.ndarray:
    """Convenience wrapper around :meth:`QuantizedArray.dequantize`."""
    return quantized.dequantize()


#: bit widths whose codes pack densely into whole bytes (wire transport)
PACKABLE_BITS = (2, 4, 8)


def pack_int_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack signed quantization codes densely at ``bits`` per value.

    Codes are shifted by ``2**(bits-1)`` into unsigned range and packed
    little-end-first within each byte (the first value occupies the lowest
    bits).  Only byte-aligned widths are supported; 3-bit codes stay an
    in-memory-only format.
    """
    if bits not in PACKABLE_BITS:
        raise ValueError(f"cannot byte-pack {bits}-bit codes; packable: {PACKABLE_BITS}")
    offset = 1 << (bits - 1)
    flat = codes.astype(np.int64).reshape(-1) + offset
    if flat.size and (flat.min() < 0 or flat.max() >= (1 << bits)):
        raise ValueError(f"codes outside the {bits}-bit range")
    values = flat.astype(np.uint8)
    per_byte = 8 // bits
    if per_byte == 1:
        return values.tobytes()
    pad = (-values.size) % per_byte
    if pad:
        values = np.concatenate([values, np.zeros(pad, dtype=np.uint8)])
    packed = np.zeros(values.size // per_byte, dtype=np.uint8)
    for slot in range(per_byte):
        packed |= values[slot::per_byte] << (slot * bits)
    return packed.tobytes()


def unpack_int_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_int_codes`: recover ``count`` signed codes."""
    if bits not in PACKABLE_BITS:
        raise ValueError(f"cannot byte-unpack {bits}-bit codes; packable: {PACKABLE_BITS}")
    per_byte = 8 // bits
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size * per_byte < count:
        raise ValueError("packed payload too short for the declared code count")
    values = np.zeros(raw.size * per_byte, dtype=np.uint8)
    mask = (1 << bits) - 1
    for slot in range(per_byte):
        values[slot::per_byte] = (raw >> (slot * bits)) & mask
    offset = 1 << (bits - 1)
    return values[:count].astype(np.int32) - offset


def quantization_error(weights: np.ndarray, bits: int) -> float:
    """Relative L2 reconstruction error introduced by quantizing ``weights``."""
    reconstructed = quantize_array(weights, bits).dequantize()
    denom = np.linalg.norm(weights)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(weights - reconstructed) / denom)


def quantize_state_dict(state: Dict[str, np.ndarray], bits: int) -> Dict[str, QuantizedArray]:
    """Quantize every entry of a ``state_dict``."""
    return {name: quantize_array(value, bits) for name, value in state.items()}


def dequantize_state_dict(quantized: Dict[str, QuantizedArray]) -> Dict[str, np.ndarray]:
    """Dequantize every entry back to floating point."""
    return {name: q.dequantize() for name, q in quantized.items()}


def state_dict_nbytes(state: Dict[str, np.ndarray], bytes_per_param: float = 4.0) -> float:
    """Storage footprint of a full-precision state dict."""
    return float(sum(value.size for value in state.values()) * bytes_per_param)


def quantized_nbytes(quantized: Dict[str, QuantizedArray]) -> float:
    """Storage footprint of a quantized state dict."""
    return float(sum(q.nbytes for q in quantized.values()))
