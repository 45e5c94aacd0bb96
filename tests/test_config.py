from dataclasses import replace

import pytest

from hyperwalk.config import (
    _KEYS,
    RunConfig,
    canonical_text,
    config_hash,
    from_text,
    load_config,
    save_config,
    to_text,
)
from hyperwalk.errors import ParameterError


def test_roundtrip_default():
    cfg = RunConfig()
    assert from_text(to_text(cfg)) == cfg


def test_roundtrip_nontrivial():
    cfg = RunConfig(
        dataset=("data/a.txt", "data/b.txt"),
        methods=("lrw", "lrw-js"),
        alpha=(0.2, 0.35),
        fakes_per_missing=10,
        rho=(0.2, 0.30000000000000004, 0.4),
        trials=7,
        seed=123,
        k_grid=(2, 5),
        beta_grid=(0.001, 0.1),
        folds=3,
        out="tmp/out",
        threads=4,
        min_cardinality=3,
        label_mode=True,
    )
    assert from_text(to_text(cfg)) == cfg


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(dataset=("x.txt",), alpha=(0.5,), seed=9)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_comments_and_blank_lines():
    cfg = from_text("# a comment\n\nseed = 42\nalpha = 0.5\n")
    assert cfg.seed == 42
    assert cfg.alpha == (0.5,)


def test_unknown_key_rejected():
    with pytest.raises(ParameterError):
        from_text("bogus = 1\n")


def test_bad_value_rejected():
    with pytest.raises(ParameterError):
        from_text("trials = soon\n")
    with pytest.raises(ParameterError):
        from_text("label-mode = maybe\n")


def test_line_without_equals_rejected():
    with pytest.raises(ParameterError, match="^config line 2: expected 'key = value'$"):
        from_text("seed = 1\ntrials 3\n")


def test_key_given_twice_rejected():
    with pytest.raises(ParameterError, match="lines 2 and 4 both set 'trials'"):
        from_text("seed = 1\ntrials = 3\n# again\ntrials = 5\n")


def test_datasets_sharing_a_name_rejected():
    # results.json and results.csv label each run by the file's stem
    with pytest.raises(ParameterError, match="a/x.txt and b/x.txt share the name 'x'"):
        RunConfig(dataset=("a/x.txt", "y.txt", "b/x.txt")).validate()
    with pytest.raises(ParameterError, match="share the name 'x'"):
        RunConfig(dataset=("x.txt", "x.csv")).validate()
    RunConfig(dataset=("a/x.txt", "b/y.txt")).validate()


def test_validate_flags_bad_fields():
    with pytest.raises(ParameterError):
        RunConfig().validate()  # no dataset
    base = dict(dataset=("x.txt",))
    with pytest.raises(ParameterError):
        RunConfig(**base, alpha=(1.5,)).validate()
    with pytest.raises(ParameterError):
        RunConfig(**base, methods=("nope",)).validate()
    with pytest.raises(ParameterError):
        RunConfig(**base, folds=1).validate()
    RunConfig(**base).validate()


@pytest.mark.parametrize("key", [k for k, (_, _, is_list, _) in _KEYS.items() if is_list])
def test_every_list_setting_needs_a_value(key):
    cfg = RunConfig(dataset=("x.txt",)).validate()
    with pytest.raises(ParameterError, match=f"^{key} needs at least one value"):
        replace(cfg, **{_KEYS[key][0]: ()}).validate()


@pytest.mark.parametrize("key", ["alpha", "rho"])
def test_repeated_alpha_or_rho_value_is_refused(key):
    cfg = RunConfig(dataset=("x.txt",)).validate()
    with pytest.raises(ParameterError, match=rf"^{key} repeats a value in \(0.5, 0.3, 0.5\)"):
        replace(cfg, **{key: (0.5, 0.3, 0.5)}).validate()


def test_hash_ignores_execution_fields():
    a = RunConfig(dataset=("x.txt",), threads=1, out="a")
    b = RunConfig(dataset=("x.txt",), threads=8, out="b")
    assert config_hash(a) == config_hash(b)
    c = RunConfig(dataset=("x.txt",), seed=99)
    assert config_hash(a) != config_hash(c)
    assert "threads" not in canonical_text(a)
