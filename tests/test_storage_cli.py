"""On-disk format round-trips, corruption handling, and CLI behavior."""
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekv import cli, storage
from prunekv.masking import BinaryChannelMask
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


def saved_files(root):
    """{kind: (file bytes, loader)} for an alpha, a beta and a checkpoint file."""
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[..., :4] = 1
    storage.save_alpha(root / "alpha.pkv", np.linspace(-1, 1, bits.size).reshape(bits.shape), CFG)
    storage.save_beta(root / "beta.pkv", BinaryChannelMask(bits=bits, r=4, keep_ratio=0.5), CFG)
    storage.save_checkpoint(root / "checkpoint.pkv", ToyTransformer.create(CFG, seed=2))
    loaders = {"alpha": lambda p: storage.load_alpha(p, CFG),
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
        storage.load_alpha(path, CFG)


def test_alpha_round_trip_and_dims_check(tmp_path):
    path = tmp_path / "alpha.pkv"
    alpha = np.random.default_rng(1).normal(size=CFG.factor_shape)
    storage.save_alpha(path, alpha, CFG, extra={"tag": 7})
    got, meta = storage.load_alpha(path, CFG)
    np.testing.assert_array_equal(got, alpha)
    assert meta["tag"] == 7
    other = ModelConfig(n_layers=2, n_q_heads=2, n_kv_heads=2, head_dim=8,
                        d_ff=16, vocab_size=32)
    with pytest.raises(storage.StorageError, match="dims"):
        storage.load_alpha(path, other)


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
    for flag, value in [("--seq-len", "0"), ("--seq-len", "-5"), ("--bytes-per-element", "0")]:
        code = cli.main(["memory-report", str(beta_path), flag, value])
        assert code == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: need seq_len >= 1") and captured.out == ""


def test_cli_errors_return_nonzero(tmp_path, capsys):
    assert cli.main(["memory-report", str(tmp_path / "missing.pkv")]) == cli.EXIT_ERROR
    assert "error" in capsys.readouterr().err


def decode_setup(tmp_path):
    ckpt = tmp_path / "model.pkv"
    storage.save_checkpoint(ckpt, ToyTransformer.create(CFG, seed=3))
    cfg_path = tmp_path / "cfg.json"
    from prunekv.experiment import ExperimentConfig
    storage.save_json(cfg_path, ExperimentConfig(
        model={"n_layers": 1, "n_q_heads": 2, "n_kv_heads": 2, "head_dim": 8,
               "d_ff": 16, "vocab_size": 32, "max_pos": 64},
        train={"sink": 2, "window": 4}).to_dict())
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
    (["--tokens", "1,2,3", "--n-new", "-3"], "n_new must be >= 0"),
    (["--tokens", "1,2,3", "--n-new", "3000"], "need 3003 positions, more than max_pos 64"),
])
def test_cli_decode_rejects_bad_input(tmp_path, capsys, args, message):
    assert cli.main(decode_setup(tmp_path) + args) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "tokens:" not in captured.out


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
