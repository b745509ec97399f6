"""On-disk format round-trips, corruption handling, and CLI behavior."""
import contextlib
import io
import json
import os
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekv import cli, experiment, storage
from prunekv.experiment import ExperimentConfig
from prunekv.masking import BinaryChannelMask, TrainSpec
from prunekv.model import ModelConfig, ToyTransformer

CFG = ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=2, head_dim=8,
                  d_ff=16, vocab_size=32, max_pos=64)


def test_container_round_trip(tmp_path):
    path = tmp_path / "x.pkv"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 0, 1], dtype=np.uint8)}
    storage.save_container(path, "alpha", {"note": "hi"}, arrays)
    meta, got = storage.load_container(path, "alpha")
    assert meta["note"] == "hi"
    np.testing.assert_array_equal(got["a"], arrays["a"])
    np.testing.assert_array_equal(got["b"], arrays["b"])
    assert got["b"].dtype == np.uint8


def test_container_byte_identical_rewrites(tmp_path):
    arrays = {"a": np.random.default_rng(0).normal(size=(3, 4))}
    p1, p2 = tmp_path / "one.pkv", tmp_path / "two.pkv"
    storage.save_container(p1, "alpha", {"k": 1}, arrays)
    storage.save_container(p2, "alpha", {"k": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_corruption(tmp_path):
    path = tmp_path / "x.pkv"
    storage.save_container(path, "beta", {}, {"bits": np.ones((2, 2), dtype=np.uint8)})
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.pkv"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(storage.StorageError, match="magic"):
        storage.load_container(bad_magic)

    truncated = tmp_path / "t.pkv"
    truncated.write_bytes(raw[:-2])
    with pytest.raises(storage.StorageError, match="truncated"):
        storage.load_container(truncated)

    with pytest.raises(storage.StorageError, match="kind"):
        storage.load_container(path, "alpha")


def container_bytes(kind, meta, specs, blobs):
    """A container file built by hand from the format: magic, the header's
    length, the sorted-key compact JSON header, then the array bytes."""
    header = json.dumps({"version": 1, "kind": kind, "meta": meta, "arrays": specs},
                        sort_keys=True, separators=(",", ":")).encode()
    return storage.MAGIC + struct.pack("<I", len(header)) + header + b"".join(blobs)


def test_container_bytes_match_a_hand_built_oracle(tmp_path):
    # name: (array, the dtype it is stored as)
    cases = {
        "w": (np.random.default_rng(0).normal(size=(3, 4)), "float64"),
        "bits": (np.array([[1, 0, 1]], dtype=np.uint8), "uint8"),
        "idx": (np.array([-2, 0, 2 ** 40], dtype=np.int64), "int64"),
        "transposed": (np.arange(12.0).reshape(3, 4).T, "float64"),
        "big_endian": (np.arange(5.0).astype(">f8"), "float64"),
        "single": (np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3), "float64"),
        "empty": (np.zeros((0, 3)), "float64"),
    }
    assert not cases["transposed"][0].flags.c_contiguous
    specs, blobs, offset = [], [], 0
    for name in sorted(cases):
        arr, dtype = cases[name]
        blob = arr.astype("<" + np.dtype(dtype).str[1:]).tobytes()
        specs.append({"name": name, "dtype": dtype, "shape": list(arr.shape),
                      "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    path = tmp_path / "x.pkv"
    storage.save_container(path, "alpha", {"note": [1, "a"]}, {k: a for k, (a, _) in cases.items()})
    assert path.read_bytes() == container_bytes("alpha", {"note": [1, "a"]}, specs, blobs)
    _, got = storage.load_container(path, "alpha")
    assert sorted(got) == sorted(cases)
    for name, (arr, dtype) in cases.items():
        assert got[name].dtype == np.dtype(dtype) and got[name].dtype.isnative, name
        assert got[name].shape == arr.shape, name
        np.testing.assert_array_equal(got[name], arr)


def test_load_rejects_an_array_listed_twice(tmp_path):
    # a repeated name once loaded the second listing's values with no error
    spec = {"name": "alpha", "dtype": "float64", "shape": [4], "nbytes": 32}
    path = tmp_path / "twice.pkv"
    path.write_bytes(container_bytes("alpha", {}, [{**spec, "offset": 0}, {**spec, "offset": 32}],
                                     [np.zeros(4).tobytes(), np.ones(4).tobytes()]))
    with pytest.raises(storage.StorageError, match="array 'alpha' is listed twice"):
        storage.load_container(path)


def test_load_rejects_trailing_bytes(saved):
    root, files = saved
    raw = files["alpha"][0]
    path = root / "trailing.pkv"
    path.write_bytes(raw + b"\x00" * 7)
    with pytest.raises(storage.StorageError, match=f"7 trailing bytes at offset {len(raw)}$"):
        storage.load_container(path)


def test_save_checkpoint_memory_bound(tmp_path):
    # each array is written from its own buffer: about 0.05 MiB traced for the
    # default model's 5.5 MiB of weights; astype, tobytes, a join and the
    # header concatenation copied them four times (16.55 MiB)
    toy = ToyTransformer.create(ModelConfig(), seed=0)
    tracemalloc.start()
    try:
        storage.save_checkpoint(tmp_path / "model.pkv", toy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def saved_files(root):
    """{kind: (file bytes, loader)} for an alpha, a beta and a checkpoint file."""
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[..., :4] = 1
    storage.save_alpha(root / "alpha.pkv", np.linspace(-1, 1, bits.size).reshape(bits.shape), CFG)
    storage.save_beta(root / "beta.pkv", BinaryChannelMask(bits=bits, r=4, keep_ratio=0.5), CFG)
    storage.save_checkpoint(root / "checkpoint.pkv", ToyTransformer.create(CFG, seed=2))
    loaders = {"alpha": lambda p: storage.load_container(p, storage.ALPHA_KIND),
               "beta": lambda p: storage.load_beta(p, CFG),
               "checkpoint": storage.load_checkpoint}
    return {kind: ((root / f"{kind}.pkv").read_bytes(), load) for kind, load in loaders.items()}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    return root, saved_files(root)


def test_truncation_at_every_offset_raises_storage_error(saved):
    root, files = saved
    path = root / "cut.pkv"
    for kind, (raw, load) in files.items():
        load(root / f"{kind}.pkv")  # the whole file loads
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(storage.StorageError):
                load(path)


def edited(raw, edit):
    """The file `raw` with its JSON header replaced by `edit(header)`."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.dumps(edit(json.loads(raw[8:8 + hlen]))).encode()
    return storage.MAGIC + struct.pack("<I", len(header)) + header + raw[8 + hlen:]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
SPEC_VALUES = {
    "name": st.sampled_from(["alpha", "bits", "l0.wq", "lm_head", ""]),
    "dtype": st.sampled_from(["float64", "uint8", "int64", "float32", "<f8", "foo", "O"]),
    "shape": st.lists(st.integers(-3, 40), max_size=4),
    "offset": st.integers(-64, 4096),
    "nbytes": st.integers(-64, 4096),
}
DELETE = object()


def set_field(header, where, value):
    """Set the header field at key path `where` to `value`, or drop it for
    DELETE; list indices wrap. The empty path replaces the whole header."""
    if not where:
        return value
    def wrap(node, key):
        return key % len(node) if isinstance(node, list) else key

    *path, last = where
    parent = header
    for key in path:
        parent = parent[wrap(parent, key)]
    last = wrap(parent, last)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return header


@st.composite
def header_edits(draw):
    """(kind, where, value) for `set_field` on a saved file of that kind."""
    kind = draw(st.sampled_from(["alpha", "beta", "checkpoint"]))
    spec = ("arrays", draw(st.integers(0, 20)))
    field = draw(st.sampled_from(sorted(SPEC_VALUES)))
    where = draw(st.sampled_from([(), ("version",), ("kind",), ("meta",), ("arrays",), spec,
                                  spec + (field,)]))
    if not where:
        return kind, where, draw(JSON)
    return kind, where, draw(st.just(DELETE) | JSON | SPEC_VALUES.get(where[-1], JSON))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(header_edits())
def test_corrupt_headers_raise_only_storage_error(saved, kind_where_value):
    root, files = saved
    kind, where, value = kind_where_value
    raw, load = files[kind]
    path = root / "edited.pkv"
    path.write_bytes(edited(raw, lambda h: set_field(h, where, value)))
    try:
        load(path)  # an edit that keeps the file consistent may load
    except storage.StorageError:
        pass


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["arrays"], "not an object with an 'arrays' list"),
    (lambda h: set_field(h, ("arrays",), DELETE), "'arrays' list"),
    (lambda h: set_field(h, ("arrays", 0, "dtype"), "foo"), "dtype 'foo'"),
    (lambda h: set_field(h, ("arrays", 0, "shape"), [3, 3, 3]), "has nbytes"),
    (lambda h: set_field(h, ("arrays", 0, "offset"), -8), "offset -8"),
])
def test_corrupt_header_cases(saved, edit, message):
    """The five header faults that once raised AttributeError, KeyError,
    TypeError or a reshape ValueError, or loaded header bytes as data."""
    root, files = saved
    path = root / "case.pkv"
    path.write_bytes(edited(files["alpha"][0], edit))
    with pytest.raises(storage.StorageError, match=message):
        storage.load_container(path, storage.ALPHA_KIND)


def test_alpha_round_trip(tmp_path):
    # alpha.pkv is an output with no loader in the package
    path = tmp_path / "alpha.pkv"
    alpha = np.random.default_rng(1).normal(size=CFG.factor_shape)
    storage.save_alpha(path, alpha, CFG, extra={"tag": 7})
    meta, arrays = storage.load_container(path, storage.ALPHA_KIND)
    np.testing.assert_array_equal(arrays["alpha"], alpha)
    assert meta == {"n_layers": 1, "n_kv_heads": 2, "head_dim": 8, "tag": 7}


def test_beta_round_trip_and_alignment_enforced(tmp_path):
    path = tmp_path / "beta.pkv"
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[0, 0, :4] = 1
    storage.save_beta(path, BinaryChannelMask(bits=bits, r=4, keep_ratio=0.25), CFG)
    beta, meta = storage.load_beta(path, CFG)
    np.testing.assert_array_equal(beta.bits, bits)
    assert beta.r == 4 and meta["keep_ratio"] == 0.25
    # hand-corrupt the stored bits so a head count is not a multiple of r
    meta2, arrays = storage.load_container(path, "beta")
    arrays["bits"] = arrays["bits"].copy()
    arrays["bits"][0, 0, 7] = 1
    bad = tmp_path / "bad.pkv"
    storage.save_container(bad, "beta", meta2, arrays)
    with pytest.raises(ValueError, match="multiple"):
        storage.load_beta(bad, CFG)


def test_checkpoint_shapes_checked_against_config(tmp_path, capsys):
    path = tmp_path / "model.pkv"
    storage.save_checkpoint(path, ToyTransformer.create(CFG, seed=2))
    meta, arrays = storage.load_container(path, "checkpoint")
    for name, edit in [("l0.wq", lambda a: a.update({"l0.wq": a["l0.wq"][:, :-1]})),
                       ("lm_head", lambda a: a.pop("lm_head")),
                       ("l1.wq", lambda a: a.update({"l1.wq": a["l0.wq"]}))]:
        bad_arrays = dict(arrays)
        edit(bad_arrays)
        bad = tmp_path / f"bad_{name}.pkv"
        storage.save_container(bad, "checkpoint", meta, bad_arrays)
        with pytest.raises(storage.StorageError, match=f"parameter '{name}'"):
            storage.load_checkpoint(bad)
    # the CLI reports it instead of failing inside the forward pass
    args = decode_setup(tmp_path)
    args[1] = str(tmp_path / "bad_l0.wq.pkv")
    assert cli.main(args + ["--tokens", "1,2,3"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "parameter 'l0.wq' has shape (16, 15)" in err


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.pkv"
    toy = ToyTransformer.create(CFG, seed=2)
    storage.save_checkpoint(path, toy)
    back = storage.load_checkpoint(path)
    assert back.config == CFG
    for k in toy.params:
        np.testing.assert_array_equal(back.params[k].data, toy.params[k].data)


def test_json_csv_and_hash(tmp_path):
    jp = tmp_path / "r.json"
    storage.save_json(jp, {"b": 1, "a": [1, 2]})
    assert storage.load_json(jp) == {"a": [1, 2], "b": 1}
    cp = tmp_path / "r.csv"
    storage.save_csv(cp, ["x", "y"], [[1, 0.5], [2, 0.25]])
    lines = cp.read_text().splitlines()
    assert lines[0] == "x,y" and lines[1] == "1,0.5"
    h1 = storage.config_hash({"a": 1, "b": 2})
    h2 = storage.config_hash({"b": 2, "a": 1})
    assert h1 == h2 and len(h1) == 64
    assert storage.config_hash({"a": 2}) != h1


def test_experiment_config_round_trip():
    from prunekv.experiment import ExperimentConfig
    cfg = ExperimentConfig(prune_ratio=0.25, model={"n_layers": 2},
                           train={"seq_len_range": [32, 64]})
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.keep_ratio == 0.75
    assert back.train_spec().seq_len_range == (32, 64)
    with pytest.raises(ValueError):
        ExperimentConfig(prune_ratio=1.0)


@pytest.mark.parametrize("field, value", [
    ("eval_samples", 0), ("calib_samples", 0), ("pretrain_batch", 0), ("migrate_every", 0),
    ("q_window", -1), ("eval_samples", 2.5), ("align", 0), ("align", 17), ("align", True),
    ("pretrain_steps", -5), ("pretrain_repeat_steps", -1), ("pretrain_steps", 1.5),
    ("pretrain_lr", 0.0), ("pretrain_lr", -1.0), ("pretrain_lr", float("inf")),
    ("pretrain_lr", float("nan")), ("pretrain_lr", "fast"), ("whf_fraction", -0.1),
    ("whf_fraction", 2.0), ("eval_kind", "bogus"), ("eval_seq_len", 7), ("eval_seq_len", 2049),
    ("prune_ratio", "x"), ("prune_ratio", None), ("seed", -1), ("seed", 1.5), ("eval_seed", "0"),
    ("out_dir", 3), ("pretrain_seq_lens", []), ("pretrain_seq_lens", 64),
    ("pretrain_seq_lens", [7]), ("pretrain_seq_lens", [64, 2049]), ("pretrain_seq_lens", [48, 64.5]),
    ("repeat_len_range", [96, 24]), ("repeat_len_range", [4, 24]),
    ("repeat_len_range", [24, 96, 128]), ("repeat_len_range", [24, 4096]),
])
def test_experiment_config_rejects_bad_counts(field, value):
    from prunekv.experiment import ExperimentConfig
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ExperimentConfig(**{field: value})
    # the edges of each range load; align may keep every channel of a head
    ExperimentConfig(align=16, pretrain_steps=0, pretrain_repeat_steps=0, whf_fraction=1.0,
                     eval_seq_len=2048)
    ExperimentConfig(whf_fraction=0.0, eval_seq_len=8, eval_kind="niah_eval",
                     pretrain_seq_lens=[8, 2048], repeat_len_range=[8, 8], seed=0, eval_seed=0)


@pytest.mark.parametrize("d, field", [
    (5, "config"), ([1, 2], "config"), ({"model": 5}, "model"), ({"train": [1]}, "train"),
    ({"train": {"lam": "x"}}, "lam"), ({"train": {"lam": -0.1}}, "lam"),
    ({"train": {"lam": float("inf")}}, "lam"),
    ({"train": {"lr_stage1": float("nan")}}, "lr_stage1"),
    ({"train": {"lr_stage2": float("nan")}}, "lr_stage2"),
    ({"train": {"lr_stage1": "fast"}}, "lr_stage1"),
    ({"train": {"steps_stage1": 2.5}}, "steps_stage1"), ({"train": {"steps_stage2": True}}, "steps_stage2"),
    ({"train": {"sink": 2.5}}, "sink"), ({"train": {"window": True}}, "window"),
    ({"train": {"batch": 1.0}}, "batch"), ({"train": {"seed": "0"}}, "seed"),
    ({"train": {"seq_len_range": 256}}, "seq_len_range"),
    ({"train": {"seq_len_range": [256]}}, "seq_len_range"),
    ({"train": {"seq_len_range": [256.0, 512]}}, "seq_len_range"),
])
def test_experiment_config_rejects_bad_sections_naming_the_field(d, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ExperimentConfig.from_dict(d)
    # the edges load
    ExperimentConfig(train={"lam": 0, "seq_len_range": [1, 1], "sink": 0, "window": 0})


def test_cli_reports_bad_config_fields_without_a_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for content, message in [
            (json.dumps({"prune_ratio": "x"}).encode(), "prune_ratio must be"),
            (b"[1, 2]", f"config {cfg_path} must be a JSON object, got [1, 2]"),
            (b"{x: 1}", f"config {cfg_path} is not JSON: Expecting property name enclosed in "
                        f"double quotes: line 1 column 2 (char 1)"),
            (b"\xff{}", f"config {cfg_path} is not JSON: ")]:  # not UTF-8
        cfg_path.write_bytes(content)
        assert cli.main(["memory-report", str(tmp_path / "beta.pkv"),
                         "--config", str(cfg_path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1


def _fields(cls, values):
    """Dicts over some fields of `cls`, each value from `values` or arbitrary JSON."""
    return st.fixed_dictionaries({}, optional={f.name: values | JSON for f in fields(cls)})


def config_dicts():
    numbers = st.integers(-2, 2100) | st.floats(-1.0, 1.0) | st.sampled_from([0.5, 1e-3, 64])
    lengths = st.lists(st.integers(-2, 2100), max_size=3)
    top = {f.name: numbers | lengths | JSON for f in fields(ExperimentConfig)}
    top["model"] = _fields(ModelConfig, st.integers(-1, 600)) | JSON
    top["train"] = _fields(TrainSpec, numbers | lengths) | JSON
    return st.fixed_dictionaries({}, optional=top) | JSON


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(config_dicts())
def test_experiment_config_from_any_json_builds_or_raises_value_error(d):
    try:
        cfg = ExperimentConfig.from_dict(d)
    except ValueError:
        return
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_save_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        storage.save_json(tmp_path / "r.json", {"accuracy": float("nan")})
    assert not (tmp_path / "r.json").exists()


def test_out_root_env_var(monkeypatch):
    from prunekv.experiment import ExperimentConfig
    cfg = ExperimentConfig(out_dir="runs/x")
    monkeypatch.setenv("PRUNEKV_OUT", "/tmp/base")
    assert cfg.resolve_out() == "/tmp/base/runs/x"
    monkeypatch.delenv("PRUNEKV_OUT")
    assert cfg.resolve_out() == "runs/x"


def test_cli_memory_report(tmp_path, capsys):
    beta_path = tmp_path / "beta.pkv"
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[:, :, :4] = 1
    storage.save_beta(beta_path, BinaryChannelMask(bits=bits, r=4, keep_ratio=0.5), CFG)
    code = cli.main(["memory-report", str(beta_path), "--seq-len", "256"])
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["k_reduction_fraction"] < 1.0
    for flag, value, message in [("--seq-len", "0", "seq_len must be a positive int, got 0"),
                                 ("--seq-len", "-5", "seq_len must be a positive int, got -5"),
                                 ("--bytes-per-element", "0",
                                  "bytes_per_element must be a positive int, got 0")]:
        code = cli.main(["memory-report", str(beta_path), flag, value])
        assert code == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.out == ""


@pytest.mark.parametrize("dims", [{}, {"n_kv_heads": 2, "head_dim": 8},
                                  {"n_layers": 1, "head_dim": 8}, {"n_layers": 1, "n_kv_heads": 2},
                                  {"n_layers": 1, "n_kv_heads": 2, "head_dim": 4},
                                  {"n_layers": 1.0, "n_kv_heads": 2, "head_dim": 8}])
def test_cli_memory_report_rejects_a_mask_without_its_dims(tmp_path, capsys, dims):
    """A mask whose header lacks a dimension, or gives other ones than its
    bits have or a non-int one, is a corrupt file: one error line naming it,
    no traceback."""
    path = tmp_path / "m.pkv"
    storage.save_container(path, storage.BETA_KIND, {**dims, "r": 1, "keep_ratio": 1.0},
                           {"bits": np.ones(CFG.factor_shape, dtype=np.uint8)})
    assert cli.main(["memory-report", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_errors_return_nonzero(tmp_path, capsys):
    assert cli.main(["memory-report", str(tmp_path / "missing.pkv")]) == cli.EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_cli_rejects_zero_eval_samples(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    storage.save_json(cfg_path, {"eval_samples": 0})
    assert cli.main(["eval", str(tmp_path / "model.pkv"), "--mode", "full",
                     "--config", str(cfg_path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eval_samples must be a positive int, got 0")


def decode_setup(tmp_path):
    ckpt = tmp_path / "model.pkv"
    storage.save_checkpoint(ckpt, ToyTransformer.create(CFG, seed=3))
    cfg_path = tmp_path / "cfg.json"
    from prunekv.experiment import ExperimentConfig
    storage.save_json(cfg_path, ExperimentConfig(
        model={"n_layers": 1, "n_q_heads": 2, "n_kv_heads": 2, "head_dim": 8,
               "d_ff": 16, "vocab_size": 32, "max_pos": 64},
        train={"sink": 2, "window": 4}, eval_seq_len=64, pretrain_seq_lens=(48, 64),
        repeat_len_range=(24, 64)).to_dict())
    return ["decode", str(ckpt), "--config", str(cfg_path)]


def test_cli_decode_with_explicit_tokens(tmp_path, capsys):
    code = cli.main(decode_setup(tmp_path) + ["--tokens", "1,2,3,4,5,6,7,8", "--n-new", "3"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("tokens: ")
    assert len(out.splitlines()[0].split()) == 4  # label + 3 tokens


@pytest.mark.parametrize("args, message", [
    (["--tokens", "1,2,99"], "token ids must be in [0, 32)"),
    (["--tokens", "1,-5,3"], "token ids must be in [0, 32)"),
    (["--tokens", "1,2,3", "--n-new", "-3"], "n_new must be an int >= 0"),
    (["--tokens", "1,2,3", "--n-new", "3000"], "need 3003 positions, more than max_pos 64"),
])
def test_cli_decode_rejects_bad_input(tmp_path, capsys, args, message):
    assert cli.main(decode_setup(tmp_path) + args) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "tokens:" not in captured.out


@pytest.mark.parametrize("command, runs", [
    (["decode"], True), (["eval", "--mode", "full"], True), (["analyze", "whf"], True),
    # at vocab 32 dense_retrieval stops at 23 tokens, short of staticity's 64-row window
    (["analyze", "staticity"], False),
])
def test_cli_commands_that_draw_samples_need_the_checkpoint_model(tmp_path, capsys, command,
                                                                   runs):
    """A command that feeds the checkpoint samples drawn from the config
    exits 1 naming the model fields that differ; given the config of the
    checkpoint's model, it runs."""
    decode = decode_setup(tmp_path)  # a CFG checkpoint and a config with CFG's model
    argv = command[:1] + [decode[1], "--out", str(tmp_path)] + command[1:]
    assert cli.main(argv) == cli.EXIT_ERROR  # the default config's model is ModelConfig()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the checkpoint's model differs from the config's in ")
    assert "n_layers 1 (config 4)" in captured.err and "max_pos 64 (config 2048)" in captured.err
    assert "rope_base" not in captured.err and captured.out == ""
    code = cli.main(argv + ["--config", decode[3]])
    if runs:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: dense_retrieval samples are 23 tokens at eval_seq_len 64 and vocab_size 32, "
            "shorter than staticity's 64-row query window\n")


@pytest.mark.parametrize("command", [
    ["eval", "--mode", "full"], ["analyze", "staticity"], ["analyze", "whf"], ["learn-mask"]])
def test_cli_refused_commands_leave_no_output_directory(tmp_path, capsys, command):
    """A command refused for its checkpoint, missing or of another model than
    the config's, or for its arguments, exits 1 before it makes its --out
    directory."""
    decode = decode_setup(tmp_path)  # a CFG checkpoint; the default config's model differs
    for ckpt, message in [(str(tmp_path / "missing.pkv"), "error: "),
                          (decode[1], "error: the checkpoint's model differs from the config's")]:
        out = tmp_path / "out"
        argv = command[:1] + [ckpt, "--out", str(out)] + command[1:]
        assert cli.main(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()
    if command == ["analyze", "staticity"]:  # refused for its samples' length
        assert cli.main(argv + ["--config", decode[3]]) == cli.EXIT_ERROR
        assert not out.exists()
    if command == ["learn-mask"]:  # refused for the default seq_len_range past max_pos 64
        assert cli.main(argv + ["--config", decode[3]]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: train seq_len_range (256, 2048) reaches past max_pos 64\n")
        assert not out.exists()
    if command[0] == "eval":  # refused for a learned eval without a mask, or an unknown mode
        argv = ["eval", decode[1], "--out", str(out), "--config", decode[3], "--mode", "learned"]
        assert cli.main(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: learned mode needs a mask\n"
        assert not out.exists()
        cfg = ExperimentConfig.from_dict(storage.load_json(decode[3]))
        with pytest.raises(ValueError, match="unknown eval mode 'bogus'"):
            experiment.cmd_eval(cfg, decode[1], "bogus", out_dir=str(out))
        assert not out.exists()
        # refused for samples shorter than a norm baseline's query window
        for mode, query, rows in [("static_norm", 64, "calibration samples are 23"),
                                  ("dynamic_norm", 32, "contexts are 22")]:
            short = tmp_path / f"{mode}.json"
            storage.save_json(short, {**cfg.to_dict(), "q_window": 32})  # static_norm's is 64
            argv = ["eval", decode[1], "--out", str(out), "--config", str(short), "--mode", mode]
            assert cli.main(argv) == cli.EXIT_ERROR
            assert capsys.readouterr().err == (
                f"error: {rows} tokens at eval_seq_len 64 and vocab_size 32, shorter than "
                f"{mode}'s {query}-row query window\n")
            assert not out.exists()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    storage.save_json(cfg_path, {"prune_ratoi": 0.5})
    assert cli.main(["memory-report", str(tmp_path / "beta.pkv"),
                     "--config", str(cfg_path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys ['prune_ratoi']")
    assert "prune_ratio" in err  # the valid keys are named

    # keys inside the model and train dicts are checked too
    decode = decode_setup(tmp_path)[:2] + ["--config", str(cfg_path), "--tokens", "1,2,3"]
    for nested, message, valid in [
            ({"train": {"windw": 2}}, "unknown train keys ['windw']", "window"),
            ({"model": {"n_layer": 1}}, "unknown model keys ['n_layer']", "n_layers")]:
        storage.save_json(cfg_path, nested)
        assert cli.main(decode) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and valid in err


def test_cli_directory_paths_exit_1_with_an_error_line(tmp_path, capsys):
    decode = decode_setup(tmp_path)
    beta_path = tmp_path / "beta.pkv"
    storage.save_beta(beta_path, BinaryChannelMask.all_ones(CFG.factor_shape), CFG)
    for argv in (["decode", str(tmp_path)], decode + ["--mask", str(tmp_path)],
                 ["memory-report", str(tmp_path)],
                 ["memory-report", str(beta_path), "--config", str(tmp_path)]):
        assert cli.main(argv) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Is a directory" in captured.err


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Paths for the CLI fuzzer, by role: each valid file of its kind, plus
    a missing path, a directory and files of the wrong kind."""
    root = tmp_path_factory.mktemp("cli")
    args = decode_setup(root)
    ckpt, cfg = args[1], args[3]
    beta = str(root / "beta.pkv")
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[0, 0, :4] = 1  # head (0, 1) streams
    storage.save_beta(beta, BinaryChannelMask(bits=bits, r=4, keep_ratio=0.25), CFG)
    (root / "empty").write_bytes(b"")
    (root / "garbage").write_bytes(b"\x00\xffnot a file of any kind")
    storage.save_json(root / "list.json", [1, 2])
    bad = [str(root / "missing.pkv"), str(root), str(root / "empty"), str(root / "garbage"),
           str(root / "list.json")]
    return {"checkpoint": [ckpt, beta, cfg] + bad, "mask": [beta, ckpt, cfg] + bad,
            "config": [cfg, ckpt, beta] + bad}


@st.composite
def cli_argvs(draw, paths):
    def maybe(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    def path(role):  # the valid file half the time
        return st.just(paths[role][0]) | st.sampled_from(paths[role][1:])

    beyond_int64 = st.integers(2 ** 63, 2 ** 70) | st.integers(-2 ** 70, -2 ** 63 - 1)
    ids = st.lists(st.integers(0, CFG.vocab_size - 1) | st.integers() | beyond_int64,
                   min_size=1, max_size=8).map(lambda xs: ",".join(map(str, xs)))
    numbers = st.integers(-3, 80).map(str) | st.integers().map(str) | st.text(max_size=6)
    config = maybe("--config", path("config"))
    if draw(st.booleans()):
        return (["decode", draw(path("checkpoint"))] + config + maybe("--mask", path("mask"))
                + maybe("--tokens", ids | st.text(max_size=12)) + maybe("--n-new", numbers))
    return (["memory-report", draw(path("mask"))] + config + maybe("--seq-len", numbers)
            + maybe("--bytes-per-element", numbers))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_decode_and_memory_report_fuzz(cli_paths, data):
    """Any argv of these shapes exits 0, 1 with one `error:` line, or 2 from
    argparse: never a traceback."""
    argv = data.draw(cli_argvs(cli_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_BAD_ARGS), argv
    if code == cli.EXIT_OK:
        assert err.getvalue() == "" and out.getvalue()
    elif code == cli.EXIT_ERROR:
        assert err.getvalue().startswith("error: ") and out.getvalue() == "", argv
