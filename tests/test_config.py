"""Every config class checks its own fields against its annotations, however it is built."""

import dataclasses
import math
import typing

import pytest

from rawnetlite import cli
from rawnetlite.augment import AugmentConfig
from rawnetlite.data_pipeline import DomainCap, MixSpec
from rawnetlite.model import ConfigError, RawNetLiteConfig
from rawnetlite.train_eval import TrainConfig

# Each config class with the arguments it needs besides its defaults.
CONFIG_CLASSES = {RawNetLiteConfig: {}, TrainConfig: {}, AugmentConfig: {}, MixSpec: {},
                  DomainCap: dict(domain="d", n_real=1, n_fake=1, role="train"), cli.RunConfig: dict(version=1)}


def mistyped(hint) -> list:
    """Values that do not fit `hint`: another type, a bool for a number, nan or inf for a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]: what does not fit X, except the null
        return [v for v in mistyped(args[0]) if v is not None]
    if origin is typing.Literal:
        return ["nope", None, 1.5, *(float(a) for a in args if type(a) is int)]
    if origin is tuple and dataclasses.is_dataclass(args[0]):
        return [None, "x", [args[0]], (3,), ({"domain": "d"},)]
    if origin is tuple:
        return [None, "x", list(args), (1.0,), (1.0, "x"), (1.0, math.nan), (1.0, math.inf), (True, 1.0)]
    if origin is dict:
        return [None, [], {"a": 3}, {3: "a"}]
    return {int: [1.5, "3", True, None], bool: [1, "yes", None], str: [3, b"x", None],
            float: ["x", math.nan, math.inf, -math.inf, True, None]}.get(hint, [None, {}, 3])


CASES = [(cls, f.name, bad) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
         for bad in mistyped(typing.get_type_hints(cls)[f.name])]


@pytest.mark.parametrize("cls, name, bad", CASES, ids=[f"{c.__name__}.{n}={b!r}" for c, n, b in CASES])
def test_mistyped_field_is_config_error_naming_the_field(cls, name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be .*, got "):
        cls(**{**CONFIG_CLASSES[cls], name: bad})


def test_every_error_says_what_the_field_takes():
    messages = {}
    for call in (lambda: TrainConfig(loss="hinge"), lambda: TrainConfig(max_steps="2"),
                 lambda: DomainCap("d", 1, 1, "validate"), lambda: MixSpec(caps=0),
                 lambda: AugmentConfig(noise_amplitude_range=(0.0,)), lambda: RawNetLiteConfig(kernel=5),
                 lambda: cli.RunConfig(version=1, manifests={"a": 3})):
        with pytest.raises(ConfigError) as info:
            call()
        messages[str(info.value).split(" must be ")[0]] = str(info.value)
    assert messages == {
        "loss": "loss must be 'bce' or 'focal', got 'hinge'",
        "max_steps": "max_steps must be an integer or null, got '2'",
        "role": "role must be 'train' or 'val' or 'test', got 'validate'",
        "caps": "caps must be a list of DomainCap, ..., got 0",
        "noise_amplitude_range": "noise_amplitude_range must be a list of float, float, got (0.0,)",
        "kernel": "kernel must be 3, got 5",
        "manifests": "manifests must be a mapping of str to str, got {'a': 3}",
    }
