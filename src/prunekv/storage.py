"""Versioned, byte-deterministic on-disk formats.

Array containers are a fixed magic + JSON header (sorted keys) + raw
little-endian array bytes, so identical inputs always produce identical
files. Writes go through a temp file and an atomic rename.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict

import numpy as np

from .masking import BinaryChannelMask
from .model import ModelConfig, ToyTransformer, param_shapes
from .autodiff import Tensor

MAGIC = b"PKVF"
VERSION = 1

ALPHA_KIND = "alpha"
BETA_KIND = "beta"
CHECKPOINT_KIND = "checkpoint"
DTYPES = ("float64", "uint8", "int64")  # the dtypes a container stores


class StorageError(ValueError):
    """Corrupt, truncated, or incompatible file."""


def _atomic_write(path, *chunks):
    """Write the byte-like `chunks`, in order, as the whole of `path`."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_container(path, kind, meta, arrays):
    """Write named float64/uint8/int64 arrays plus JSON metadata. Each array
    is written from its own little-endian buffer, copied only when its byte
    order, dtype or layout differs."""
    specs = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if str(arr.dtype) not in DTYPES:
            arr = arr.astype(np.float64)
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False).reshape(-1).view(np.uint8)
        specs.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape),
                      "offset": offset, "nbytes": blob.size})
        blobs.append(blob)
        offset += blob.size
    header = json.dumps({"version": VERSION, "kind": kind, "meta": meta, "arrays": specs},
                        sort_keys=True, separators=(",", ":")).encode()
    _atomic_write(path, MAGIC, struct.pack("<I", len(header)), header, *blobs)


def _is_count(x):
    return type(x) is int and x >= 0


def _check_spec(path, spec):
    """Raise StorageError unless `spec` describes one array consistently."""
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise StorageError(f"{path}: corrupt array spec {spec!r}")
    name, dtype, shape = spec["name"], spec.get("dtype"), spec.get("shape")
    if dtype not in DTYPES:
        raise StorageError(f"{path}: array {name!r} has dtype {dtype!r}, not one of {DTYPES}")
    if not isinstance(shape, list) or not all(map(_is_count, shape)):
        raise StorageError(f"{path}: array {name!r} has shape {shape!r}, "
                           "not a list of non-negative ints")
    for key in ("offset", "nbytes"):
        if not _is_count(spec.get(key)):
            raise StorageError(f"{path}: array {name!r} has {key} {spec.get(key)!r}, "
                               "not a non-negative int")
    need = math.prod(shape) * np.dtype(dtype).itemsize
    if spec["nbytes"] != need:
        raise StorageError(f"{path}: array {name!r} has nbytes {spec['nbytes']}, "
                           f"but shape {shape} of {dtype} needs {need}")


def load_container(path, expect_kind=None):
    """(meta, {name: array}) of a container; StorageError for any corrupt file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise StorageError(f"{path}: bad magic at offset 0")
    if len(raw) < 8:
        raise StorageError(f"{path}: truncated header at offset {len(raw)}")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise StorageError(f"{path}: truncated header at offset {len(raw)}")
    try:
        header = json.loads(raw[8:8 + hlen])
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise StorageError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise StorageError(f"{path}: corrupt header: not an object with an 'arrays' list")
    if header.get("version") != VERSION:
        raise StorageError(f"{path}: unsupported version {header.get('version')}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise StorageError(f"{path}: expected kind {expect_kind!r}, found {header.get('kind')!r}")
    if not isinstance(header.get("meta"), dict):
        raise StorageError(f"{path}: corrupt header: 'meta' is not an object")
    # The file is read whole and each array copied out of it on purpose. A
    # fresh process starts glibc's dynamic mmap threshold at 128 KiB, so the
    # prefill's 0.1-1 MiB temporaries are mmapped and page-faulted on every
    # call; freeing this one multi-MiB read buffer raises the threshold, and
    # that alone keeps an eval round at a few minor faults. Reading each
    # array in place took a round to about 171,000 faults (op_ms +70%), and
    # np.frombuffer views at an offset instead of the slice copies to about
    # 14,000 (round_s +12%).
    base = offset = 8 + hlen
    arrays = {}
    for spec in header["arrays"]:
        _check_spec(path, spec)
        start = base + spec["offset"]
        if start != offset:  # arrays follow one another, as save_container writes them
            raise StorageError(f"{path}: array {spec['name']!r} starts at offset {start}, "
                               f"expected {offset}")
        end = offset = start + spec["nbytes"]
        if end > len(raw):
            raise StorageError(f"{path}: truncated array {spec['name']!r} at offset {start}")
        if spec["name"] in arrays:
            raise StorageError(f"{path}: array {spec['name']!r} is listed twice")
        arr = np.frombuffer(raw[start:end], dtype=np.dtype(spec["dtype"]).newbyteorder("<"))
        arrays[spec["name"]] = arr.reshape(spec["shape"]).astype(spec["dtype"])
    if offset != len(raw):
        raise StorageError(f"{path}: {len(raw) - offset} trailing bytes at offset {offset}")
    return header["meta"], arrays


def _dims_meta(config):
    return {"n_layers": config.n_layers, "n_kv_heads": config.n_kv_heads,
            "head_dim": config.head_dim}


def check_dims(meta, config):
    expect = _dims_meta(config)
    got = {k: meta.get(k) for k in expect}
    if got != expect:
        raise StorageError(f"dims {got} do not match model {expect}")


def save_alpha(path, alpha, config, extra=None):
    meta = _dims_meta(config)
    meta.update(extra or {})
    save_container(path, ALPHA_KIND, meta, {"alpha": np.asarray(alpha, dtype=np.float64)})


def save_beta(path, beta, config):
    meta = _dims_meta(config)
    meta.update({"r": beta.r, "keep_ratio": beta.keep_ratio})
    save_container(path, BETA_KIND, meta, {"bits": beta.bits.astype(np.uint8)})


def load_beta(path, config=None):
    meta, arrays = load_container(path, BETA_KIND)
    if config is not None:
        check_dims(meta, config)
    if "bits" not in arrays:
        raise StorageError(f"{path}: array 'bits' is missing")
    bits = arrays["bits"]
    dims = tuple(meta.get(k) for k in ("n_layers", "n_kv_heads", "head_dim"))
    if bits.dtype != np.uint8 or bits.shape != dims or any(type(n) is not int for n in dims):
        raise StorageError(f"{path}: array 'bits' is {bits.dtype} {bits.shape}, expected uint8 "
                           f"of the header's (n_layers, n_kv_heads, head_dim) {dims}")
    try:  # BinaryChannelMask validates the per-head alignment invariant
        beta = BinaryChannelMask(bits=bits, r=int(meta["r"]), keep_ratio=float(meta["keep_ratio"]))
    except (KeyError, TypeError, ValueError) as e:
        raise StorageError(f"{path}: bad mask: {e}") from None
    return beta, meta


def save_checkpoint(path, model):
    meta = {"config": {**asdict(model.config), "d_model": model.config.d_model}}
    save_container(path, CHECKPOINT_KIND, meta,
                   {k: v.data for k, v in model.params.items()})


def load_checkpoint(path):
    meta, arrays = load_container(path, CHECKPOINT_KIND)
    try:
        cfg = dict(meta["config"])
        cfg.pop("d_model", None)  # derived
        config = ModelConfig(**cfg)
    except (KeyError, TypeError, ValueError) as e:
        raise StorageError(f"{path}: bad model config: {e}") from None
    want = param_shapes(config)
    for name in sorted(set(want) | set(arrays)):
        if name not in arrays:
            raise StorageError(f"{path}: parameter {name!r} is missing")
        if name not in want:
            raise StorageError(f"{path}: unexpected parameter {name!r}")
        if arrays[name].shape != want[name]:
            raise StorageError(f"{path}: parameter {name!r} has shape {arrays[name].shape}, "
                               f"the config needs {want[name]}")
        if arrays[name].dtype != np.float64:
            raise StorageError(f"{path}: parameter {name!r} has dtype {arrays[name].dtype}, "
                               "not float64")
    params = {k: Tensor(v) for k, v in arrays.items()}
    return ToyTransformer(config, params)


def save_json(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).encode() + b"\n")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def save_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def config_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
